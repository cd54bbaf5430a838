package symbolic

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// codecShapes are the predicate shapes the view log must carry: interval
// sets with open, closed and infinite bounds, plain and negated
// categorical sets, opaque atoms, several conjuncts, TRUE and FALSE.
func codecShapes() []DNF {
	inf := math.Inf(1)
	id := NumConstraint(NewIntervalSet(
		Interval{Lo: -inf, LoOpen: true, Hi: 10, HiOpen: true},
		Interval{Lo: 20, Hi: 30},
		Point(42.5),
		Interval{Lo: 100, LoOpen: true, Hi: inf, HiOpen: true}))
	car := NewConjunct().WithConstraint("id", id).
		WithConstraint("label", CatConstraint(NewCatSet("car", "bus"))).
		WithConstraint("cartype(frame, bbox)", CatConstraint(NewCatSetNot("Nissan")))
	opaque := NewConjunct().
		WithConstraint("label < 'm'", CatConstraint(NewCatSet(opaqueTruthy))).
		WithConstraint("flag", CatConstraint(NewCatSetNot(opaqueTruthy))).
		WithConstraint("area", NumConstraint(NewIntervalSet(Interval{Lo: math.Copysign(0, -1), Hi: 0.25, HiOpen: true})))
	return []DNF{
		False(),
		True(),
		FromConjuncts(car),
		FromConjuncts(opaque, car),
		FromConjuncts(car, NewConjunct().WithConstraint("", CatConstraint(NewCatSet("")))),
	}
}

// randCodecDNF builds a predicate in normal form from r, through the
// public constructors only.
func randCodecDNF(r *rand.Rand) DNF {
	terms := []string{"id", "area", "label", "colordet(frame, bbox)", "x > y", ""}
	vals := []string{"car", "bus", "Gray", opaqueTruthy, "", "a b"}
	bound := func() float64 {
		switch r.Intn(6) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		case 2:
			return math.Copysign(0, -1)
		default:
			return float64(r.Intn(40)-20) / 4
		}
	}
	var conjs []Conjunct
	for n := r.Intn(5); n > 0; n-- {
		c := NewConjunct()
		for k := r.Intn(4); k > 0; k-- {
			term := terms[r.Intn(len(terms))]
			if _, dup := c.Constraint(term); dup {
				continue
			}
			if r.Intn(2) == 0 {
				var ivs []Interval
				for m := 1 + r.Intn(3); m > 0; m-- {
					lo, hi := bound(), bound()
					ivs = append(ivs, Interval{Lo: lo, Hi: hi,
						LoOpen: r.Intn(2) == 0 || math.IsInf(lo, 0), HiOpen: r.Intn(2) == 0 || math.IsInf(hi, 0)})
				}
				c = c.WithConstraint(term, NumConstraint(NewIntervalSet(ivs...)))
				continue
			}
			var set []string
			for m := r.Intn(3); m > 0; m-- {
				set = append(set, vals[r.Intn(len(vals))])
			}
			if r.Intn(2) == 0 {
				c = c.WithConstraint(term, CatConstraint(NewCatSetNot(set...)))
			} else {
				c = c.WithConstraint(term, CatConstraint(NewCatSet(set...)))
			}
		}
		conjs = append(conjs, c)
	}
	return FromConjuncts(conjs...)
}

func checkCodecRoundTrip(t *testing.T, d DNF) {
	t.Helper()
	enc := d.AppendBinary(nil)
	got, err := DecodeDNF(enc)
	if err != nil {
		t.Fatalf("decode(encode(%s)): %v", d, err)
	}
	if !got.Equal(d) || got.String() != d.String() {
		t.Fatalf("round trip changed the predicate:\n was %s\n got %s", d, got)
	}
	if got.AtomCount() != d.AtomCount() || got.IsFalse() != d.IsFalse() || got.IsTrue() != d.IsTrue() {
		t.Fatalf("round trip changed %s: atoms %d→%d", d, d.AtomCount(), got.AtomCount())
	}
	if _, err := DecodeDNF(append(enc, 0)); err == nil {
		t.Fatalf("a trailing byte after %s decoded", d)
	}
}

func TestDNFCodecShapes(t *testing.T) {
	for _, d := range codecShapes() {
		checkCodecRoundTrip(t, d)
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		checkCodecRoundTrip(t, randCodecDNF(r))
	}
	// Reduced predicates of random expressions: what the manager holds.
	for i := 0; i < 500; i++ {
		d, err := FromExpr(randPredicate(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		checkCodecRoundTrip(t, Reduce(d))
	}
}

// TestDNFCodecRejectsNonCanonical: one predicate has one encoding, so
// forms the encoder never emits are errors rather than a second spelling.
func TestDNFCodecRejectsNonCanonical(t *testing.T) {
	iv := func(lo, hi float64) []byte { // one closed interval, encoded
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(lo))
		return append(binary.LittleEndian.AppendUint64(b, math.Float64bits(hi)), 0)
	}
	head := func(nIvs byte) []byte { return []byte{codecVersion, 1, 1, 1, 'x', codecNumeric, nIvs} }
	cases := map[string][]byte{
		"empty input":            {},
		"unknown version":        {9, 0},
		"count beyond input":     {codecVersion, 200},
		"unknown kind":           {codecVersion, 1, 1, 1, 'x', 7, 0},
		"empty interval set":     head(0),
		"intervals unsorted":     append(append(head(2), iv(5, 6)...), iv(1, 2)...),
		"intervals overlapping":  append(append(head(2), iv(1, 3)...), iv(2, 4)...),
		"empty interval":         append(head(1), iv(3, 1)...),
		"terms unsorted":         {codecVersion, 1, 2, 1, 'b', codecIn, 1, 1, 'v', 1, 'a', codecIn, 1, 1, 'v'},
		"terms duplicated":       {codecVersion, 1, 2, 1, 'a', codecIn, 1, 1, 'v', 1, 'a', codecIn, 1, 1, 'v'},
		"values unsorted":        {codecVersion, 1, 1, 1, 'a', codecIn, 2, 1, 'w', 1, 'v'},
		"unsatisfiable (∈ {})":   {codecVersion, 1, 1, 1, 'a', codecIn, 0},
		"full constraint (∉ {})": {codecVersion, 1, 1, 1, 'a', codecNotIn, 0},
	}
	for name, data := range cases {
		if d, err := DecodeDNF(data); err == nil {
			t.Errorf("%s: decoded as %s", name, d)
		}
	}
}

// FuzzDNFCodec: arbitrary bytes never panic the decoder, never make it
// allocate beyond a bound derived from their length, and — when they do
// decode — are exactly the canonical encoding of what they decoded to;
// and every predicate generated from the same bytes survives
// encode→decode Equal and String()-identical, with a trailing byte
// refused.
func FuzzDNFCodec(f *testing.F) {
	for _, d := range codecShapes() {
		enc := d.AppendBinary(nil)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{codecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := DecodeDNF(data)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(96*len(data)+8192); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err == nil {
			if enc := d.AppendBinary(nil); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a non-canonical encoding of %s:\n in  %x\n out %x", d, data, enc)
			}
			checkCodecRoundTrip(t, d)
		}
		h := fnv.New64a()
		h.Write(data)
		checkCodecRoundTrip(t, randCodecDNF(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}
