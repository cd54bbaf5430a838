package optimizer

import (
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/exec"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// harness wires a full system over a small synthetic video.
type harness struct {
	cat   *catalog.Catalog
	store *storage.Engine
	mgr   *udf.Manager
	rt    *udf.Runtime
	clock *simclock.Clock
	opt   *Optimizer
	ctx   *exec.Context
}

func newHarness(t *testing.T, ds vision.Dataset) *harness {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.RegisterVideo("video", ds); err != nil {
		t.Fatal(err)
	}
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateVideo("video", ds); err != nil {
		t.Fatal(err)
	}
	clock := &simclock.Clock{}
	rt := udf.NewRuntime(cat, clock)
	mgr := udf.NewManager(nil)
	return &harness{
		cat: cat, store: store, mgr: mgr, rt: rt, clock: clock,
		opt: New(cat, mgr, clock),
		ctx: &exec.Context{Store: store, Runtime: rt, Domain: rt.DefaultDomain(), Clock: clock},
	}
}

func (h *harness) run(t *testing.T, sql string, mode Mode) (*types.Batch, *Result) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	claims := h.mgr.Begin()
	res, err := h.opt.Optimize(stmt.(*parser.SelectStmt), mode, claims)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	out, err := exec.Run(h.ctx, res.Plan)
	if err != nil {
		t.Fatalf("run %q: %v\nplan:\n%s", sql, err, plan.Explain(res.Plan))
	}
	if _, err := claims.Commit(nil); err != nil {
		t.Fatalf("commit %q: %v", sql, err)
	}
	return out, res
}

const q3SQL = `SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame)
	WHERE id < 200 AND area > 0.25 AND label = 'car'
	AND CarType(frame, bbox) = 'Nissan' AND ColorDet(frame, bbox) = 'Gray'`

func TestScanRangePushdown(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	_, res := h.run(t, "SELECT id FROM video WHERE id >= 100 AND id < 160", NoReuseMode())
	if res.Report.ScanLo != 100 || res.Report.ScanHi != 160 {
		t.Errorf("scan range = [%d, %d)", res.Report.ScanLo, res.Report.ScanHi)
	}
	out, _ := h.run(t, "SELECT id FROM video WHERE id >= 100 AND id < 160", NoReuseMode())
	if out.Len() != 60 {
		t.Errorf("rows = %d, want 60", out.Len())
	}
	if out.At(0, 0).Int() != 100 || out.At(59, 0).Int() != 159 {
		t.Errorf("bounds wrong: %v..%v", out.At(0, 0), out.At(59, 0))
	}
}

func TestDetectorQueryMatchesGroundModel(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	out, _ := h.run(t, "SELECT id, label, area FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 20", NoReuseMode())
	want := 0
	for f := int64(0); f < 20; f++ {
		dets, err := vision.Detect(vision.FasterRCNN50, vision.MediumUADetrac.EncodeFrame(f))
		if err != nil {
			t.Fatal(err)
		}
		want += len(dets)
	}
	if out.Len() != want {
		t.Errorf("detections = %d, want %d", out.Len(), want)
	}
}

func TestEVAReuseCorrectAndFaster(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	base, _ := h.run(t, q3SQL, NoReuseMode())

	h2 := newHarness(t, vision.MediumUADetrac)
	first, _ := h2.run(t, q3SQL, EVAMode())
	if first.Len() != base.Len() {
		t.Fatalf("EVA first run rows = %d, no-reuse = %d", first.Len(), base.Len())
	}

	// Second identical query: results equal, UDF time ≈ 0.
	snap := h2.clock.Snapshot()
	second, _ := h2.run(t, q3SQL, EVAMode())
	delta := h2.clock.Since(snap)
	if second.Len() != base.Len() {
		t.Fatalf("EVA second run rows = %d, want %d", second.Len(), base.Len())
	}
	for r := 0; r < base.Len(); r++ {
		if base.At(r, 0).Int() != second.At(r, 0).Int() || base.At(r, 1).Str() != second.At(r, 1).Str() {
			t.Fatalf("row %d differs under reuse", r)
		}
	}
	if udfTime := delta.Get(simclock.CatUDF); udfTime > 0 {
		t.Errorf("second run charged %v of UDF time, want 0", udfTime)
	}
	if delta.Get(simclock.CatReadView) == 0 {
		t.Error("second run should read views")
	}
	if h2.rt.HitPercentage() <= 0 {
		t.Error("hit percentage should be positive")
	}
}

func TestPartialOverlapOnlyEvaluatesDiff(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	q1 := "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 150"
	q2 := "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= 100 AND id < 200"
	h.run(t, q1, EVAMode())
	before := h.rt.CounterSnapshot()["fasterrcnnresnet50"]
	if before.Evaluated != 150 {
		t.Fatalf("q1 evaluated %d frames, want 150", before.Evaluated)
	}
	h.run(t, q2, EVAMode())
	after := h.rt.CounterSnapshot()["fasterrcnnresnet50"]
	// Only frames [150, 200) are new.
	if evals := after.Evaluated - before.Evaluated; evals != 50 {
		t.Errorf("q2 evaluated %d new frames, want 50", evals)
	}
	if reused := after.Reused; reused != 50 {
		t.Errorf("q2 reused %d frames, want 50 (overlap 100..150)", reused)
	}
}

func TestMaterializationAwareReordering(t *testing.T) {
	// After a query materializes CarType over a range, a follow-up with
	// both CarType and ColorDet should order CarType first under the
	// materialization-aware ranking even though ColorDet is cheaper,
	// because CarType's results are already materialized (§1, III).
	h := newHarness(t, vision.MediumUADetrac)
	warm := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 200 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`
	h.run(t, warm, EVAMode())

	both := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 200 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'
		AND ColorDet(frame, bbox) = 'Gray'`
	_, res := h.run(t, both, EVAMode())
	if len(res.Report.Order) != 2 {
		t.Fatalf("order = %v", res.Report.Order)
	}
	if res.Report.Order[0] != "CarType" {
		t.Errorf("materialization-aware order = %v, want CarType first", res.Report.Order)
	}

	// Canonical ranking ignores the view: ColorDet (5 ms, similar
	// selectivity) goes first.
	h2 := newHarness(t, vision.MediumUADetrac)
	h2.run(t, warm, Mode{Reuse: true, ReuseScalarUDFs: true, Ranking: RankCanonical})
	_, res2 := h2.run(t, both, Mode{Reuse: true, ReuseScalarUDFs: true, Ranking: RankCanonical})
	if res2.Report.Order[0] != "ColorDet" {
		t.Errorf("canonical order = %v, want ColorDet first", res2.Report.Order)
	}
}

func TestReorderingSameResults(t *testing.T) {
	// Whatever the ordering, results agree.
	a := newHarness(t, vision.MediumUADetrac)
	outA, _ := a.run(t, q3SQL, Mode{Reuse: true, ReuseScalarUDFs: true, Ranking: RankCanonical})
	b := newHarness(t, vision.MediumUADetrac)
	outB, _ := b.run(t, q3SQL, EVAMode())
	if outA.Len() != outB.Len() {
		t.Fatalf("rows differ: %d vs %d", outA.Len(), outB.Len())
	}
}

func TestHashStashModeReusesOnlyDetector(t *testing.T) {
	mode := Mode{Reuse: true, ReuseScalarUDFs: false, Ranking: RankCanonical}
	h := newHarness(t, vision.MediumUADetrac)
	h.run(t, q3SQL, mode)
	before := h.rt.CounterSnapshot()
	h.run(t, q3SQL, mode)
	after := h.rt.CounterSnapshot()
	if reused := after["fasterrcnnresnet50"].Reused; reused == 0 {
		t.Error("detector results should be reused")
	}
	if evals := after["cartype"].Evaluated - before["cartype"].Evaluated; evals == 0 {
		t.Error("CarType should be re-evaluated (no scalar reuse in HashStash)")
	}
}

func TestGroupByCount(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	out, _ := h.run(t, `SELECT id, COUNT(*) FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 10 AND label = 'car' GROUP BY id`, NoReuseMode())
	if out.Len() == 0 {
		t.Fatal("no groups")
	}
	// Validate one group against ground truth.
	f := out.At(0, 0).Int()
	dets, _ := vision.Detect(vision.FasterRCNN50, vision.MediumUADetrac.EncodeFrame(f))
	cars := 0
	for _, d := range dets {
		if d.Label == "car" {
			cars++
		}
	}
	if got := out.At(0, 1).Int(); got != int64(cars) {
		t.Errorf("count for frame %d = %d, want %d", f, got, cars)
	}
}

func TestProjectionUDFIsScheduled(t *testing.T) {
	// SELECT License(frame, bbox): the UDF appears only in the
	// projection and must still be rewritten into an Apply.
	h := newHarness(t, vision.MediumUADetrac)
	sql := `SELECT id, License(frame, bbox) FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 15 AND label = 'car'`
	out, res := h.run(t, sql, EVAMode())
	if out.Len() == 0 {
		t.Fatal("no rows")
	}
	if got := out.Schema()[1].Kind; got != types.KindString {
		t.Errorf("license column kind = %v", got)
	}
	if !strings.Contains(plan.Explain(res.Plan), "ScalarApply(License") {
		t.Errorf("plan lacks License apply:\n%s", plan.Explain(res.Plan))
	}
	// Second run fully reuses License results.
	before := h.rt.CounterSnapshot()["license"]
	h.run(t, sql, EVAMode())
	after := h.rt.CounterSnapshot()["license"]
	if after.Evaluated != before.Evaluated {
		t.Errorf("license re-evaluated: %d -> %d", before.Evaluated, after.Evaluated)
	}
}

func TestLogicalUDFAlgorithm2(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	// Warm the FRCNN50 view via a physical query.
	h.run(t, "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 100", EVAMode())

	// A logical low-accuracy query should pick up the FRCNN50 view
	// under EVA (reusing high-accuracy results, §4.3) …
	sql := "SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 100"
	stmt, _ := parser.Parse(sql)
	res, err := h.opt.Optimize(stmt.(*parser.SelectStmt), EVAMode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	foundFRCNN := false
	for _, s := range res.Report.DetectorSources {
		if strings.Contains(s, "fasterrcnnresnet50") {
			foundFRCNN = true
		}
	}
	if !foundFRCNN {
		t.Errorf("Algorithm 2 did not select the FRCNN50 view: %v", res.Report.DetectorSources)
	}
	if res.Report.DetectorEval != vision.YoloTiny {
		t.Errorf("eval model = %s, want YoloTiny (cheapest)", res.Report.DetectorEval)
	}
	before := h.rt.CounterSnapshot()
	if _, err := exec.Run(h.ctx, res.Plan); err != nil {
		t.Fatal(err)
	}
	after := h.rt.CounterSnapshot()
	if evals := after["yolotiny"].Evaluated - before["yolotiny"].Evaluated; evals != 0 {
		t.Errorf("YoloTiny evaluated %d frames despite full FRCNN50 coverage", evals)
	}

	// … while Min-Cost only consults YoloTiny's (empty) view and must
	// evaluate everything.
	h2 := newHarness(t, vision.MediumUADetrac)
	h2.run(t, "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 100", EVAMode())
	stmt2, _ := parser.Parse(sql)
	res2, err := h2.opt.Optimize(stmt2.(*parser.SelectStmt), Mode{Reuse: true, ReuseScalarUDFs: true, Ranking: RankMaterializationAware, Logical: LogicalMinCost}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(h2.ctx, res2.Plan); err != nil {
		t.Fatal(err)
	}
	if evals := h2.rt.CounterSnapshot()["yolotiny"].Evaluated; evals != 100 {
		t.Errorf("Min-Cost evaluated %d frames, want 100", evals)
	}
}

func TestLogicalAccuracyConstraint(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	sql := "SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'HIGH' WHERE id < 5"
	stmt, _ := parser.Parse(sql)
	res, err := h.opt.Optimize(stmt.(*parser.SelectStmt), EVAMode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DetectorEval != vision.FasterRCNN101 {
		t.Errorf("HIGH accuracy bound to %s", res.Report.DetectorEval)
	}
}

func TestSpecializedFilterRunsBeforeDetector(t *testing.T) {
	h := newHarness(t, vision.Jackson)
	sql := `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 300 AND VehicleFilter(frame) = TRUE AND label = 'car'`
	_, res := h.run(t, sql, EVAMode())
	if len(res.Report.PreOrder) != 1 || res.Report.PreOrder[0] != "VehicleFilter" {
		t.Fatalf("pre-detector order = %v", res.Report.PreOrder)
	}
	// The filter confidently prunes a fraction of the empty Jackson
	// frames before the detector runs.
	stats := h.rt.CounterSnapshot()
	if det := stats["fasterrcnnresnet50"]; det.Evaluated >= 290 || det.Evaluated < 100 {
		t.Errorf("detector ran on %d of 300 frames; filter should prune ≈30%% of empties", det.Evaluated)
	}
	if flt := stats["vehiclefilter"]; flt.Evaluated != 300 {
		t.Errorf("filter ran on %d frames, want 300", flt.Evaluated)
	}
}

func TestErrorPaths(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	bad := []string{
		"SELECT id FROM ghost WHERE id < 5",
		"SELECT id FROM video WHERE Mystery(frame) = 1",
		"SELECT id FROM video WHERE label = 'car'",                                     // detector column without CROSS APPLY
		"SELECT id FROM video CROSS APPLY CarType(frame) WHERE id < 5",                 // scalar as table UDF
		"SELECT id, area FROM video CROSS APPLY FasterRCNNResnet50(frame) GROUP BY id", // area not grouped
		"SELECT * FROM video GROUP BY id",
		"SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'ULTRA' WHERE id < 5",
	}
	for _, sql := range bad {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := h.opt.Optimize(stmt.(*parser.SelectStmt), EVAMode(), nil); err == nil {
			t.Errorf("Optimize(%q) should error", sql)
		}
	}
}

func TestLimitAndStar(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	out, _ := h.run(t, "SELECT * FROM video WHERE id < 50 LIMIT 7", NoReuseMode())
	if out.Len() != 7 {
		t.Errorf("limit rows = %d", out.Len())
	}
	if len(out.Schema()) != 3 {
		t.Errorf("star schema = %s", out.Schema())
	}
}

func TestFig7AtomCountsGrowForBaseline(t *testing.T) {
	// The report exposes atom counts of the derived predicates; with
	// reduction enabled they stay small across refinements.
	h := newHarness(t, vision.MediumUADetrac)
	queries := []string{
		"SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 100 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'",
		"SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 150 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'",
		"SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= 50 AND id < 120 AND label = 'car' AND CarType(frame, bbox) = 'Toyota'",
	}
	maxUnion := 0
	for _, q := range queries {
		_, res := h.run(t, q, EVAMode())
		for sig, info := range res.Report.Preds {
			if strings.HasPrefix(sig, "video.cartype") && info.UnionAtoms > maxUnion {
				maxUnion = info.UnionAtoms
			}
		}
	}
	if maxUnion == 0 || maxUnion > 12 {
		t.Errorf("union atoms after reduction = %d, want small and positive", maxUnion)
	}
}
