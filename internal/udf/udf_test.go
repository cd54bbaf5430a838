package udf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/simclock"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/vision"
)

// TestViewNameSpelling: ViewName is "udf_" and the Key with '.', '['
// and ',' written as '_' and ']' dropped — the names every view log on
// disk carries — and it is written in one allocation.
func TestViewNameSpelling(t *testing.T) {
	spell := strings.NewReplacer("[", "_", "]", "", ",", "_", ".", "_")
	for _, sig := range []Signature{
		NewSignature("video", "FasterRCNNResnet50", []expr.Expr{expr.NewColumn("frame")}),
		NewSignature("video", "CarType", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")}),
		NewSignature("", "f", []expr.Expr{expr.NewCall("g", expr.NewColumn("x"))}),
		NewSignature("", "Area", nil),
		NewSignature("video", "f", nil),
		NewSignature("", "f", []expr.Expr{expr.NewColumn("x"), expr.NewColumn("y"), expr.NewColumn("z")}),
		{Table: "a.b", Name: "n[m]", Inputs: []string{"p,q", ""}},
	} {
		if got, want := sig.ViewName(), "udf_"+spell.Replace(sig.Key()); got != want {
			t.Errorf("%s: ViewName = %q, want %q", sig.Key(), got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = sig.ViewName() }); n > 1 {
			t.Errorf("%s: ViewName allocates %v times, want at most 1", sig.Key(), n)
		}
	}
}

func TestSignatureNormalization(t *testing.T) {
	a := NewSignature("", "CarType", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")})
	b := NewSignature("", "cartype", []expr.Expr{expr.NewColumn("BBOX"), expr.NewColumn("Frame")})
	if a.Key() != b.Key() {
		t.Errorf("signatures differ: %s vs %s", a, b)
	}
	if a.Key() != "cartype[bbox,frame]" {
		t.Errorf("key = %q", a.Key())
	}
	if got := a.KeyColumns(); len(got) != 2 || got[0] != "bbox" || got[1] != "id" {
		t.Errorf("key columns = %v", got)
	}
	det := NewSignature("", "FasterRCNNResnet50", []expr.Expr{expr.NewColumn("frame")})
	if got := det.KeyColumns(); len(got) != 1 || got[0] != "id" {
		t.Errorf("detector key columns = %v", got)
	}
	if det.ViewName() != "udf_fasterrcnnresnet50_frame" {
		t.Errorf("view name = %q", det.ViewName())
	}
	// Nested calls contribute their function name as a source.
	nested := NewSignature("", "f", []expr.Expr{expr.NewCall("g", expr.NewColumn("x"))})
	if key := nested.Key(); key != "f[g,x]" {
		t.Errorf("nested key = %q", key)
	}
	// No args still keys by frame id.
	empty := NewSignature("", "f", nil)
	if got := empty.KeyColumns(); len(got) != 1 || got[0] != "id" {
		t.Errorf("empty key columns = %v", got)
	}
}

func pred(t *testing.T, s string, lo, hi float64) symbolic.DNF {
	t.Helper()
	e := expr.NewAnd(
		expr.NewCmp(expr.OpGe, expr.NewColumn(s), expr.NewConst(types.NewFloat(lo))),
		expr.NewCmp(expr.OpLt, expr.NewColumn(s), expr.NewConst(types.NewFloat(hi))),
	)
	d, err := symbolic.FromExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(nil)
	sig := NewSignature("", "det", []expr.Expr{expr.NewColumn("frame")})
	if agg := m.AggOf(sig); !agg.IsFalse() {
		t.Error("fresh entry should have p_u = FALSE")
	}
	q1 := pred(t, "id", 0, 10000)
	if !symbolic.Inter(m.AggOf(sig), q1).IsFalse() {
		t.Error("first query: no overlap")
	}
	if symbolic.Diff(m.AggOf(sig), q1).IsFalse() {
		t.Error("first query: everything is new work")
	}
	if err := commit(m, sig, q1); err != nil {
		t.Fatal(err)
	}

	q2 := pred(t, "id", 7500, 12000)
	if symbolic.Inter(m.AggOf(sig), q2).IsFalse() {
		t.Error("second query should overlap")
	}
	diff := symbolic.Diff(m.AggOf(sig), q2)
	if ok, _ := diff.Evaluate(map[string]symbolic.Value{"id": symbolic.Num(11000)}); !ok {
		t.Errorf("11000 should be in diff: %s", diff)
	}
	if ok, _ := diff.Evaluate(map[string]symbolic.Value{"id": symbolic.Num(8000)}); ok {
		t.Errorf("8000 should not be in diff: %s", diff)
	}
	if err := commit(m, sig, q2); err != nil {
		t.Fatal(err)
	}
	// Aggregated predicate reduced to one range.
	e, ok := m.EntryByView(sig.ViewName())
	if !ok || e.Agg.AtomCount() != 2 {
		t.Errorf("p_u atoms = %d (%s), want 2 ([0, 12000))", e.Agg.AtomCount(), e.Agg)
	}

	if _, ok := m.EntryByView(NewSignature("", "other", nil).ViewName()); ok {
		t.Error("EntryByView should not create entries")
	}
	if len(m.entries) != 1 {
		t.Errorf("entries = %d", len(m.entries))
	}
	m.Reset()
	if len(m.entries) != 0 {
		t.Error("reset failed")
	}
}

// commit runs a one-claim statement that materialized q for sig.
func commit(m *Manager, sig Signature, q symbolic.DNF) error {
	c := m.Begin()
	c.Add(sig, q)
	if _, err := c.Commit(nil); err != nil {
		c.Abort()
		return err
	}
	return nil
}

func newRuntime(t *testing.T) (*Runtime, *simclock.Clock) {
	t.Helper()
	clock := &simclock.Clock{}
	return NewRuntime(catalog.New(), clock), clock
}

func TestEvalDetectorChargesCost(t *testing.T) {
	r, clock := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(42)
	out, err := r.EvalDetector(vision.FasterRCNN50, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Equal(catalog.DetectorSchema) {
		t.Errorf("schema = %s", out.Schema())
	}
	if got := clock.Total(); got != 99*time.Millisecond {
		t.Errorf("charged %v, want 99ms", got)
	}
	// Output rows match the vision model directly.
	dets, _ := vision.Detect(vision.FasterRCNN50, payload)
	if out.Len() != len(dets) {
		t.Errorf("rows = %d, want %d", out.Len(), len(dets))
	}
	if out.Len() > 0 {
		if got := out.At(0, 3).Float(); got != dets[0].Area() {
			t.Errorf("area col = %v, want %v", got, dets[0].Area())
		}
	}
	if _, err := r.EvalDetector("CarType", payload); err == nil {
		t.Error("scalar UDF as detector should error")
	}
	if _, err := r.EvalDetector("ghost", payload); err == nil {
		t.Error("unknown UDF should error")
	}
}

func TestEvalScalarBuiltins(t *testing.T) {
	r, clock := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(3)
	objs := vision.MediumUADetrac.Objects(3)
	if len(objs) == 0 {
		t.Skip("frame 3 empty")
	}
	bbox := vision.FormatBBox(objs[0].X, objs[0].Y, objs[0].W, objs[0].H)
	args := []types.Datum{types.NewBytes(payload), types.NewString(bbox)}

	vt, err := r.EvalScalar("CarType", args)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Kind() != types.KindString {
		t.Errorf("CarType -> %v", vt)
	}
	if _, err := r.EvalScalar("ColorDet", args); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvalScalar("License", args); err != nil {
		t.Fatal(err)
	}
	area, err := r.EvalScalar("Area", []types.Datum{types.NewString(bbox)})
	if err != nil {
		t.Fatal(err)
	}
	if diff := area.Float() - objs[0].Area(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("area = %v, want %v", area.Float(), objs[0].Area())
	}
	flt, err := r.EvalScalar("VehicleFilter", []types.Datum{types.NewBytes(payload)})
	if err != nil || flt.Kind() != types.KindBool {
		t.Errorf("filter: %v, %v", flt, err)
	}
	// Costs: 6 + 5 + 15 + ~0 + 1 ms.
	want := 27 * time.Millisecond
	if got := clock.Total().Round(time.Millisecond); got != want {
		t.Errorf("charged %v, want ≈ %v", got, want)
	}

	// Arg validation.
	if _, err := r.EvalScalar("CarType", []types.Datum{types.NewInt(1)}); err == nil {
		t.Error("bad args should error")
	}
	if _, err := r.EvalScalar("Area", []types.Datum{types.NewString("junk")}); err == nil {
		t.Error("bad bbox should error")
	}
	if _, err := r.EvalScalar(vision.FasterRCNN50, args); err == nil {
		t.Error("detector as scalar should error")
	}
}

func TestCustomImplRegistration(t *testing.T) {
	r, _ := newRuntime(t)
	cat := catalog.New()
	r.cat = cat
	if err := cat.RegisterUDF(&catalog.UDF{
		Name: "RedSUV", Kind: catalog.KindScalarUDF, Cost: time.Millisecond,
		Impl:    "udfs/redsuv.go",
		Outputs: types.MustSchema(types.Column{Name: "redsuv_out", Kind: types.KindBool}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvalScalar("RedSUV", nil); err == nil {
		t.Error("unregistered impl should error")
	}
	r.RegisterImpl("RedSUV", func(args []types.Datum) (types.Datum, error) {
		return types.NewBool(true), nil
	})
	got, err := r.EvalScalar("RedSUV", nil)
	if err != nil || !got.Bool() {
		t.Errorf("custom impl: %v, %v", got, err)
	}
}

func TestFunCacheHitsAndCharges(t *testing.T) {
	r, clock := newRuntime(t)
	r.SetFunCache(true)
	payload := vision.MediumUADetrac.EncodeFrame(11)
	if _, err := r.EvalDetector(vision.FasterRCNN50, payload); err != nil {
		t.Fatal(err)
	}
	afterFirst := clock.Snapshot()
	out2, err := r.EvalDetector(vision.FasterRCNN50, payload)
	if err != nil {
		t.Fatal(err)
	}
	delta := clock.Since(afterFirst)
	if delta.Get(simclock.CatUDF) != 0 {
		t.Errorf("cache hit still charged UDF time: %v", delta)
	}
	if delta.Get(simclock.CatHash) == 0 {
		t.Error("cache hit must still pay hashing")
	}
	if out2 == nil || out2.Len() == 0 {
		// Frame 11 may legitimately have 0 detections; only flag nil.
		if out2 == nil {
			t.Error("cached result lost")
		}
	}
	stats := r.CounterSnapshot()
	_ = stats // reuse counters only track demanded invocations; see below

	// Scalar caching.
	objs := vision.MediumUADetrac.Objects(11)
	if len(objs) > 0 {
		bbox := vision.FormatBBox(objs[0].X, objs[0].Y, objs[0].W, objs[0].H)
		args := []types.Datum{types.NewBytes(payload), types.NewString(bbox)}
		v1, _ := r.EvalScalar("CarType", args)
		s := clock.Snapshot()
		v2, _ := r.EvalScalar("CarType", args)
		if !types.Equal(v1, v2) {
			t.Error("cache returned different value")
		}
		if clock.Since(s).Get(simclock.CatUDF) != 0 {
			t.Error("scalar cache hit charged UDF time")
		}
	}
}

func TestFunCacheHashCostScalesWithVirtualFrame(t *testing.T) {
	r, clock := newRuntime(t)
	r.SetFunCache(true)
	payload := vision.MediumUADetrac.EncodeFrame(0)
	if _, err := r.EvalDetector(vision.FasterRCNN50, payload); err != nil {
		t.Fatal(err)
	}
	hash := clock.Snapshot()[simclock.CatHash]
	// Two passes over 960×540×3 virtual bytes plus one cache insertion.
	wantSecs := 2*float64(960*540*3)/FunCacheHashThroughput + FunCacheStoreCost.Seconds()
	got := hash.Seconds()
	if got < wantSecs*0.9 || got > wantSecs*1.1 {
		t.Errorf("hash charge = %vs, want ≈ %vs", got, wantSecs)
	}
}

func TestDemandAndHitPercentage(t *testing.T) {
	r, _ := newRuntime(t)
	for i := 0; i < 10; i++ {
		r.RecordDemandKey("det", []byte(fmt.Sprintf("key-%d", i%5)))
	}
	for i := 0; i < 4; i++ {
		r.RecordBatch("det", nil, 1)
	}
	stats := r.CounterSnapshot()["det"]
	if stats.Distinct != 5 || stats.Total != 10 || stats.Reused != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if got := r.HitPercentage(); got != 40 {
		t.Errorf("hit%% = %v", got)
	}
	r.ResetCounters()
	if r.HitPercentage() != 0 || len(r.CounterSnapshot()) != 0 {
		t.Error("reset failed")
	}
}

func TestEvaluatedCounter(t *testing.T) {
	r, _ := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(5)
	if _, err := r.EvalDetector(vision.FasterRCNN50, payload); err != nil {
		t.Fatal(err)
	}
	r.RecordDemandKey(canonLower(vision.FasterRCNN50), []byte("5"))
	stats := r.CounterSnapshot()[canonLower(vision.FasterRCNN50)]
	if stats.Evaluated != 1 {
		t.Errorf("evaluated = %d", stats.Evaluated)
	}
}

func canonLower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// TestDemandSetMatchesMap holds the demand set to a map oracle: random
// hashes with repeats through several doublings, the hash 0 (the empty
// slot's value, kept beside the table), and hashes that share their low
// bits and so collide in any table; #DI is the oracle's size after every
// add. It also checks that a batch that only reuses — no demand yet —
// does not bring a UDF into CounterSnapshot, and that its first demand
// does.
func TestDemandSetMatchesMap(t *testing.T) {
	var s demandSet
	oracle := map[uint64]struct{}{}
	add := func(h uint64) {
		t.Helper()
		s.add(h)
		oracle[h] = struct{}{}
		if s.len() != len(oracle) {
			t.Fatalf("after adding %#x: %d distinct, oracle %d", h, s.len(), len(oracle))
		}
	}
	rng := uint64(88172645463325252)
	for i := 0; i < 3000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		add(rng % 2048 * 0x9E3779B97F4A7C15)
		if i%500 == 0 {
			add(0)
		}
	}
	for i := uint64(0); i < 200; i++ {
		add(i << 40)
		add((i % 7) << 40)
	}
	for h := range oracle {
		if h != 0 && s.slots[s.find(h)] != h {
			t.Fatalf("%#x added but not found", h)
		}
	}
	if !s.zero || s.slots[s.find(1)] == 1 {
		t.Fatal("hash 0 lost, or a hash never added found")
	}

	r, _ := newRuntime(t)
	r.RecordBatch("det", nil, 3)
	if _, ok := r.CounterSnapshot()["det"]; ok || r.HitPercentage() != 0 {
		t.Fatal("a UDF with reuses but no demand entered the stats")
	}
	r.RecordBatch("det", []uint64{0, 0, 7}, 1)
	if st := r.CounterSnapshot()["det"]; st.Distinct != 2 || st.Total != 3 || st.Reused != 4 {
		t.Fatalf("stats after the first demand = %+v, want 2 distinct of 3, 4 reused", st)
	}
}

// TestIDIntervalsMatchHashCount holds the id intervals to what counting
// the same demand by hash gives: random batches of non-decreasing ids —
// dense ones, as a covered probe records them, and ones with repeats and
// gaps, recorded as their runs of consecutive ids — overlapping earlier
// batches, touching them and repeating them, for a UDF that is also
// demanded on a composite key. #DI, #TI and the reuse count must equal a
// runtime fed the DemandHash of every key, and the intervals must stay
// sorted, disjoint and apart.
func TestIDIntervalsMatchHashCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		got, _ := newRuntime(t)
		want, _ := newRuntime(t)
		for b := 0; b < 40; b++ {
			if rng.Intn(5) == 0 {
				// The same UDF on a (bbox, id) key.
				id := rng.Int63n(300)
				key := types.NewInt(id).AppendBinary(types.NewString(fmt.Sprint("box", id%3)).AppendBinary(nil))
				got.RecordBatch("det", []uint64{DemandHash(key)}, 1)
				want.RecordBatch("det", []uint64{DemandHash(key)}, 1)
				continue
			}
			lo, n := rng.Int63n(300)-20, 1+rng.Intn(40)
			ids, dense := make([]int64, n), rng.Intn(2) == 0
			for i := range ids {
				ids[i] = lo + int64(i)
				if i > 0 && !dense {
					// Repeats and gaps: a detector's objects, a filter's holes.
					ids[i] = ids[i-1] + int64(rng.Intn(3))
				}
			}
			var batch types.IDSet
			var hashes []uint64
			for _, id := range ids {
				batch.Add(id, id)
				hashes = append(hashes, DemandHash(types.NewInt(id).AppendBinary(nil)))
			}
			reused := rng.Intn(n + 1)
			got.RecordIDs("det", batch.Ranges(), n, reused)
			want.RecordBatch("det", hashes, reused)
			if g, w := got.CounterSnapshot()["det"], want.CounterSnapshot()["det"]; g != w {
				t.Fatalf("trial %d batch %d (ids %v): stats %+v, by hash %+v", trial, b, ids, g, w)
			}
			rs := got.counters["det"].ids.Ranges()
			for i := 1; i < len(rs); i++ {
				if rs[i].Lo <= rs[i-1].Hi+1 {
					t.Fatalf("trial %d: intervals %v touch or overlap", trial, rs)
				}
			}
		}
	}
}
