package optimizer

import (
	"math"
	"strings"
	"testing"

	"eva/internal/expr"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// seedDetectorView warms a physical detector's aggregated predicate
// over an id range, without executing anything.
func seedDetectorView(h *harness, model string, lo, hi int64) {
	sig := udf.NewSignature("video", model, []expr.Expr{expr.NewColumn("frame")})
	pred := expr.NewAnd(
		expr.NewCmp(expr.OpGe, expr.NewColumn("id"), expr.NewConst(types.NewInt(lo))),
		expr.NewCmp(expr.OpLt, expr.NewColumn("id"), expr.NewConst(types.NewInt(hi))),
	)
	d, err := symbolic.FromExpr(pred)
	if err != nil {
		panic(err)
	}
	c := h.mgr.Begin()
	c.Add(sig, d)
	if _, err := c.Commit(nil); err != nil {
		panic(err)
	}
}

func planLogical(t *testing.T, h *harness, sql string, mode Mode) *Result {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.opt.Optimize(stmt.(*parser.SelectStmt), mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSetCoverPrefersBestCoveringView(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	// FRCNN50 covers the whole query range; FRCNN101 covers a sliver.
	seedDetectorView(h, vision.FasterRCNN50, 0, 10000)
	seedDetectorView(h, vision.FasterRCNN101, 9000, 9500)
	res := planLogical(t, h,
		"SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 8000", EVAMode())
	if len(res.Report.DetectorSources) == 0 {
		t.Fatal("no sources selected")
	}
	if !strings.Contains(res.Report.DetectorSources[0], "fasterrcnnresnet50") {
		t.Errorf("first source = %v, want the fully covering FRCNN50 view", res.Report.DetectorSources)
	}
}

func TestSetCoverCombinesComplementaryViews(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	// Two views each cover half of the query range.
	seedDetectorView(h, vision.FasterRCNN50, 0, 5000)
	seedDetectorView(h, vision.FasterRCNN101, 5000, 10000)
	res := planLogical(t, h,
		"SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 10000", EVAMode())
	joined := strings.Join(res.Report.DetectorSources, ",")
	if !strings.Contains(joined, "fasterrcnnresnet50") || !strings.Contains(joined, "fasterrcnnresnet101") {
		t.Errorf("sources = %v, want both complementary views", res.Report.DetectorSources)
	}
}

func TestSetCoverRespectsAccuracyConstraint(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	// Only a YoloTiny (LOW) view exists, but the query demands HIGH.
	seedDetectorView(h, vision.YoloTiny, 0, 10000)
	res := planLogical(t, h,
		"SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'HIGH' WHERE id < 5000", EVAMode())
	for _, s := range res.Report.DetectorSources {
		if strings.Contains(s, "yolotiny") {
			t.Errorf("LOW-accuracy view selected for a HIGH query: %v", res.Report.DetectorSources)
		}
	}
	if res.Report.DetectorEval != vision.FasterRCNN101 {
		t.Errorf("eval = %s, want FRCNN101", res.Report.DetectorEval)
	}
}

func TestSetCoverSkipsUselessViews(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	// A view over a disjoint range should not be consulted.
	seedDetectorView(h, vision.FasterRCNN101, 12000, 14000)
	res := planLogical(t, h,
		"SELECT id FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 5000", EVAMode())
	for _, s := range res.Report.DetectorSources {
		if strings.Contains(s, "fasterrcnnresnet101") {
			t.Errorf("disjoint view selected: %v", res.Report.DetectorSources)
		}
	}
}

// TestGreedyMatchesExhaustiveOnSmallInstances cross-checks the greedy
// weighted set cover against brute-force enumeration of view subsets,
// scoring each plan with the same cost model (view read cost over
// covered tuples + cheapest-UDF evaluation of the remainder). The
// greedy solution must stay within the ln(n)-style factor — on these
// tiny instances, within 1.4× of optimal.
func TestGreedyMatchesExhaustiveOnSmallInstances(t *testing.T) {
	h := newHarness(t, vision.MediumUADetrac)
	stats := mustStats(t, h)
	scenarios := []struct {
		name   string
		ranges map[string][2]int64 // model -> materialized range
		qLo    int64
		qHi    int64
	}{
		{"nested", map[string][2]int64{vision.FasterRCNN50: {0, 10000}, vision.FasterRCNN101: {2000, 4000}}, 0, 8000},
		{"split", map[string][2]int64{vision.FasterRCNN50: {0, 5000}, vision.FasterRCNN101: {5000, 10000}}, 0, 10000},
		{"sliver", map[string][2]int64{vision.FasterRCNN101: {0, 500}}, 0, 10000},
		{"nothing", map[string][2]int64{}, 0, 10000},
	}
	for _, sc := range scenarios {
		h.mgr.Reset()
		for model, r := range sc.ranges {
			seedDetectorView(h, model, r[0], r[1])
		}
		q := rangeDNF(t, sc.qLo, sc.qHi)
		cands := h.cat.UDFsForLogical("ObjectDetector", vision.AccuracyLow)
		var sigs []udf.Signature
		for _, def := range cands {
			sigs = append(sigs, udf.NewSignature("video", def.Name, []expr.Expr{expr.NewColumn("frame")}))
		}
		greedySources := h.opt.selectPhysicalUDFs(cands[0], cands, sigs, q, stats, EVAMode())

		greedyCost := coverCost(h, greedySources, q, stats)
		bestCost := math.Inf(1)
		// Enumerate every subset (in both orders of inclusion the cost
		// model is order-insensitive for disjoint remainder handling).
		n := len(cands)
		for mask := 0; mask < 1<<n; mask++ {
			var sources []string
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					sources = append(sources, cands[i].Name)
				}
			}
			c := coverCostNames(h, sources, q, stats)
			if c < bestCost {
				bestCost = c
			}
		}
		if greedyCost > bestCost*1.4+1e-9 {
			t.Errorf("%s: greedy cost %.1f exceeds 1.4× optimal %.1f", sc.name, greedyCost, bestCost)
		}
	}
}

func mustStats(t *testing.T, h *harness) symbolic.Stats {
	t.Helper()
	table, err := h.cat.Table("video")
	if err != nil {
		t.Fatal(err)
	}
	return table.Stats
}

func rangeDNF(t *testing.T, lo, hi int64) symbolic.DNF {
	t.Helper()
	e := expr.NewAnd(
		expr.NewCmp(expr.OpGe, expr.NewColumn("id"), expr.NewConst(types.NewInt(lo))),
		expr.NewCmp(expr.OpLt, expr.NewColumn("id"), expr.NewConst(types.NewInt(hi))),
	)
	d, err := symbolic.FromExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func coverCost(h *harness, sources []plan.ApplySource, q symbolic.DNF, stats symbolic.Stats) float64 {
	names := make([]string, len(sources))
	for i, s := range sources {
		names[i] = s.UDF
	}
	return coverCostNames(h, names, q, stats)
}

// coverCostNames scores a view-selection plan: reading each selected
// view costs c_r per covered tuple (plus wasted reads outside q), and
// the uncovered remainder is evaluated by the cheapest model.
func coverCostNames(h *harness, models []string, q symbolic.DNF, stats symbolic.Stats) float64 {
	const totalRows = 14000.0
	crSec := 0.001 // TableViewReadCost
	cheapest := 0.009
	rem := q
	cost := 0.0
	for _, m := range models {
		sig := udf.NewSignature("video", m, []expr.Expr{expr.NewColumn("frame")})
		agg := h.mgr.AggOf(sig)
		covered := symbolic.Selectivity(symbolic.Inter(agg, rem), stats)
		selView := symbolic.Selectivity(agg, stats)
		if covered <= 0 {
			continue
		}
		cost += crSec * selView * totalRows
		rem = symbolic.Diff(agg, rem)
	}
	cost += cheapest * symbolic.Selectivity(rem, stats) * totalRows
	return cost
}
