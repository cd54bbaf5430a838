package udf

import (
	"fmt"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/simclock"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/vision"
)

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
	e := m.Lookup(sig)
	if !e.Agg.IsFalse() {
		t.Error("fresh entry should have p_u = FALSE")
	}
	q1 := pred(t, "id", 0, 10000)
	an := m.Analyze(sig, q1)
	if !an.Inter.IsFalse() {
		t.Error("first query: no overlap")
	}
	if an.Diff.IsFalse() {
		t.Error("first query: everything is new work")
	}
	m.Commit(sig, q1)

	q2 := pred(t, "id", 7500, 12000)
	an = m.Analyze(sig, q2)
	if an.Inter.IsFalse() {
		t.Error("second query should overlap")
	}
	if ok, _ := an.Diff.Evaluate(map[string]symbolic.Value{"id": symbolic.Num(11000)}); !ok {
		t.Errorf("11000 should be in diff: %s", an.Diff)
	}
	if ok, _ := an.Diff.Evaluate(map[string]symbolic.Value{"id": symbolic.Num(8000)}); ok {
		t.Errorf("8000 should not be in diff: %s", an.Diff)
	}
	m.Commit(sig, q2)
	// Aggregated predicate reduced to one range.
	e = m.Lookup(sig)
	if got := e.Agg.AtomCount(); got != 2 {
		t.Errorf("p_u atoms = %d (%s), want 2 ([0, 12000))", got, e.Agg)
	}

	if _, ok := m.Peek(NewSignature("", "other", nil)); ok {
		t.Error("Peek should not create entries")
	}
	if len(m.Entries()) != 1 {
		t.Errorf("entries = %d", len(m.Entries()))
	}
	m.Reset()
	if len(m.Entries()) != 0 {
		t.Error("reset failed")
	}
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
		r.RecordDemand("det", fmt.Sprintf("key-%d", i%5))
	}
	for i := 0; i < 4; i++ {
		r.RecordReuse("det")
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
	r.RecordDemand(vision.FasterRCNN50, "5")
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
