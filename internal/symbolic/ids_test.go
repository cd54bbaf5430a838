package symbolic

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randIDBound draws an interval end for the id property test: ±∞, an
// integer, a half or a quarter, around the window's low end and
// across it.
func randIDBound(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	case 2:
		return float64(r.Intn(40)) + 0.5
	case 3:
		return float64(r.Intn(40)) - 0.25
	case 4:
		return float64(r.Intn(4) - 2) // -2 … 1: the rounding at the first frame
	default:
		return float64(r.Intn(42) - 2)
	}
}

// randIDDNF draws a DNF of up to four conjuncts: each constrains id
// alone (a union of up to three intervals with open or closed ends),
// constrains only label, or is TRUE; no conjunct at all is FALSE.
func randIDDNF(r *rand.Rand) DNF {
	var conjs []Conjunct
	for range r.Intn(5) {
		switch r.Intn(8) {
		case 0:
			conjs = append(conjs, NewConjunct().WithConstraint("label", CatConstraint(NewCatSet("car"))))
		case 1:
			conjs = append(conjs, NewConjunct())
		default:
			var ivs []Interval
			for range 1 + r.Intn(3) {
				a, b := randIDBound(r), randIDBound(r)
				ivs = append(ivs, Interval{Lo: min(a, b), Hi: max(a, b), LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0})
			}
			conjs = append(conjs, NewConjunct().WithConstraint("id", NumConstraint(NewIntervalSet(ivs...))))
		}
	}
	return FromConjuncts(conjs...)
}

// TestIDRangesMatchEvaluate holds IDRanges and IDHull to the predicate's
// own evaluation at every integer id of a window that every finite
// bound lies inside: ranges ∪ [tail, ∞) is exactly the set of ids the
// DNF admits, ranges are sorted, merged and start at 0 or later, and
// the hull cut to a table of n frames is that set's least id and one
// past its greatest (n when the set is unbounded or passes n), empty
// where it has no frame. FromIDRanges inverts the bounded part.
func TestIDRangesMatchEvaluate(t *testing.T) {
	const window = 50
	r := rand.New(rand.NewSource(47))
	for trial := range 2000 {
		d := randIDDNF(r)
		ranges, tail := d.IDRanges()
		var admitted []int64
		for id := int64(0); id <= window; id++ {
			want, err := d.Evaluate(map[string]Value{"id": Num(float64(id)), "label": Str("car")})
			if err != nil {
				t.Fatal(err)
			}
			got := id >= tail
			for _, rg := range ranges {
				got = got || (rg.Lo <= id && id <= rg.Hi)
			}
			if got != want {
				t.Fatalf("trial %d, %s: id %d admitted %v, IDRanges say %v (%v, tail %d)", trial, d, id, want, got, ranges, tail)
			}
			if want {
				admitted = append(admitted, id)
			}
		}
		for i, rg := range ranges {
			if rg.Lo < 0 || rg.Lo > rg.Hi || (i > 0 && ranges[i-1].Hi+1 >= rg.Lo) {
				t.Fatalf("trial %d, %s: ranges %v are not sorted, merged and ≥ 0", trial, d, ranges)
			}
		}
		if tail != math.MaxInt64 && tail > window {
			t.Fatalf("trial %d, %s: tail %d lies past every bound", trial, d, tail)
		}
		unbounded := tail != math.MaxInt64
		if !unbounded {
			back, _ := FromIDRanges(ranges).IDRanges()
			if !slices.Equal(back, ranges) {
				t.Fatalf("trial %d: FromIDRanges(%v) reads back as %v", trial, ranges, back)
			}
		}
		frames := int64(r.Intn(window + 10))
		lo, hi := d.IDHull(frames)
		wantLo, wantHi := int64(0), int64(0)
		if len(admitted) > 0 {
			wantLo, wantHi = admitted[0], admitted[len(admitted)-1]+1
			if unbounded || wantHi > frames {
				wantHi = frames
			}
			wantHi = max(wantHi, wantLo)
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d, %s: hull over %d frames [%d, %d), want [%d, %d)", trial, d, frames, lo, hi, wantLo, wantHi)
		}
	}
}
