package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/types"
	"eva/internal/vision"
)

// mixed is a small video with about 1.5 objects per frame: many frames
// have no detection, so the detector's view holds zero-row keys, and
// many have several.
var mixed = vision.Dataset{Name: "mixed", Frames: 200, Width: 600, Height: 400, Density: 1.5, Seed: 0x5EED}

// detThenCarType is the VBENCH chain a detector query plans to, as the
// optimizer built it before plan.Fuse: a detector, a Filter on its
// label, the CarType classifier and two Filters on the result, the
// second on a detector column nothing above it carries. where is the
// second Filter's predicate.
func detThenCarType(lo, hi int64, where expr.Expr) plan.Node {
	det := &plan.ReuseApply{
		Input:     scan(lo, hi),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
	cars := &plan.Filter{Input: det, Pred: expr.NewCmp(expr.OpEq, colx("label"), strc("car"))}
	ct := carTypeApply(cars, "ct_view", false)
	notNissan := &plan.Filter{Input: ct, Pred: expr.NewCmp(expr.OpNe, colx("cartype_out"), strc("Nissan"))}
	return &plan.Project{Input: &plan.Filter{Input: notNissan, Pred: where}, Items: []plan.ProjItem{
		{Name: "id", E: colx("id"), Kind: types.KindInt},
		{Name: "bbox", E: colx("bbox"), Kind: types.KindString},
		{Name: "score", E: colx("score"), Kind: types.KindFloat},
	}}
}

// foldedDetThenCarType is detThenCarType as plan.Fuse leaves it, built
// by hand: each Filter is a Where of the apply below it, and each apply
// carries only what the operators above it read.
func foldedDetThenCarType(lo, hi int64, where expr.Expr) plan.Node {
	proj := detThenCarType(lo, hi, where).(*plan.Project)
	second := proj.Input.(*plan.Filter)
	first := second.Input.(*plan.Filter)
	ct := first.Input.(*plan.ReuseApply)
	cars := ct.Input.(*plan.Filter)
	det := cars.Input.(*plan.ReuseApply)
	det.Where, det.Pass, det.Emit = []expr.Expr{cars.Pred}, []string{"id", "frame"}, []string{"bbox", "score", "area"}
	ct.Input, ct.Where, ct.Pass, ct.Emit = det, []expr.Expr{first.Pred, second.Pred}, []string{"id", "bbox", "score"}, []string{}
	proj.Input = ct
	return proj
}

// areaOver is a selection that keeps most cars; divByZeroAt fails on
// the frame with id z, after the rows of the frames before it flowed.
func areaOver(v float64) expr.Expr {
	return expr.NewCmp(expr.OpGt, colx("area"), expr.NewConst(types.NewFloat(v)))
}

func divByZeroAt(z int64) expr.Expr {
	return expr.NewCmp(expr.OpGt, expr.NewArith(expr.OpDiv, intc(100), expr.NewArith(expr.OpSub, colx("id"), intc(z))), intc(-1000))
}

// whereDigest runs a session of detector-and-classifier statements and
// renders everything a client or the next statement can observe: each
// statement's rows or first error, the virtual clock breakdown and the
// UDF counters after it, and finally both views' rows. The session
// evaluates, then serves half of its keys from the views, fails in a
// selection, fails on injected CarType faults, and serves everything.
// It also counts the frames the detector's view holds with no rows.
func whereDigest(t *testing.T, folded bool, workers int, pooled bool) (digest string, zeroRow int) {
	t.Helper()
	chain := detThenCarType
	if folded {
		chain = foldedDetThenCarType
	}
	ctx := testCtx(t, mixed)
	ctx.BatchSize, ctx.Workers = 16, workers
	if pooled {
		ctx.Pool = types.NewBatchPool()
		ctx.Pool.SetPoison(true)
	}
	var sb strings.Builder
	run := func(name string, n plan.Node) {
		out, err := Run(ctx, n)
		fmt.Fprintf(&sb, "== %s\n", name)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
		} else {
			sb.WriteString(FormatBatch(out))
		}
		fmt.Fprintf(&sb, "clock: %v\ncounters: %v\n", ctx.Clock.Snapshot(), ctx.Runtime.CounterSnapshot())
	}
	run("cold", chain(0, 60, areaOver(0.05)))
	run("half served", chain(30, 120, areaOver(0.05)))
	// A failing statement charges what the serial engine would only
	// when no pipeline stage runs ahead of the failure; an injector,
	// even one with no rules, keeps stages off (Context.maybeStage).
	ctx.Faults = faults.New(0)
	run("selection fails", chain(100, 160, divByZeroAt(130)))
	inj := faults.New(11)
	inj.Rule(faults.SiteUDF("CarType"), faults.Rule{Kind: faults.Permanent, Prob: 0.05})
	ctx.Faults = inj
	ctx.Runtime.SetInjector(inj)
	run("udf fails", chain(120, 200, areaOver(0.05)))
	ctx.Faults = nil
	ctx.Runtime.SetInjector(nil)
	run("served", chain(0, 120, areaOver(0.02)))
	for _, view := range []string{"det_view", "ct_view"} {
		fmt.Fprintf(&sb, "%s\n%s", view, FormatBatch(ctx.Store.View(view).Scan()))
	}
	det, seen := ctx.Store.View("det_view").Scan(), map[int64]bool{}
	for r := 0; r < det.Len(); r++ {
		seen[det.At(r, 0).Int()] = true
	}
	return sb.String(), 120 - len(seen) // frames [0, 120) all ran to completion
}

// TestFoldedWhereMatchesFilter: an apply with its Filters folded into
// its Where and its columns narrowed to the live ones is the Filter
// stack over the apply, to every observer — rows, first error text,
// virtual clock, UDF counters and view rows — over served, evaluated,
// zero-row and failing keys, table and scalar UDFs, at 1 and 4 workers,
// pooled (with poisoning) and not.
func TestFoldedWhereMatchesFilter(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/pooled=%v", workers, pooled), func(t *testing.T) {
				want, zeroRow := whereDigest(t, false, workers, pooled)
				for _, marker := range []string{"error: exec: filter", "error: exec: udf CarType"} {
					if !strings.Contains(want, marker) {
						t.Fatalf("the session does not cover %q:\n%s", marker, want)
					}
				}
				if zeroRow == 0 {
					t.Fatal("no frame without detections: the session does not cover zero-row keys")
				}
				if got, _ := whereDigest(t, true, workers, pooled); got != want {
					t.Errorf("folded plan differs from the Filter stack\n%s", firstDiff(got, want))
				}
			})
		}
	}
}

// TestFuseFoldsTheFilterStack: plan.Fuse turns the optimizer-shaped
// chain into exactly the hand-folded one.
func TestFuseFoldsTheFilterStack(t *testing.T) {
	got := plan.Explain(plan.Fuse(detThenCarType(0, 10, areaOver(0.05))))
	if want := plan.Explain(foldedDetThenCarType(0, 10, areaOver(0.05))); got != want {
		t.Fatalf("Fuse =\n%s\nwant\n%s", got, want)
	}
	for _, s := range []string{"Filter(", "where=label = 'car'", "cols=[id frame bbox score area]", "where=cartype_out != 'Nissan'; area > 0.05, cols=[id bbox score]"} {
		if strings.Contains(got, s) != (s != "Filter(") {
			t.Errorf("Fuse plan and %q:\n%s", s, got)
		}
	}
}

// firstDiff renders the first line two digests differ on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(g), len(w))
}

// TestFailedRunRecyclesEveryBatch: a pooled Run that fails part way
// through its input returns every batch it drew to the pool — the scan
// batches in flight, the Where scratch, the detector's output chunks,
// the view rows staged but never stored, the collector, and at 2
// workers what a halted pipeline stage buffered or held.
func TestFailedRunRecyclesEveryBatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		node   plan.Node
		udf    bool // inject permanent CarType faults
		staged bool // at 2 workers, a pipeline stage starts
	}{
		{"folded selection", plan.Fuse(detThenCarType(0, 120, divByZeroAt(70))), false, true},
		{"selection over a scan", &plan.Filter{Input: scan(0, 120), Pred: divByZeroAt(70)}, false, false},
		{"udf fault", plan.Fuse(detThenCarType(0, 120, areaOver(0.05))), true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					ctx := testCtx(t, mixed)
					ctx.BatchSize, ctx.Workers = 8, workers
					ctx.Pool = types.NewBatchPool()
					if tc.udf {
						inj := faults.New(5)
						inj.Rule(faults.SiteUDF("CarType"), faults.Rule{Kind: faults.Permanent, Prob: 0.02})
						ctx.Faults = inj
						ctx.Runtime.SetInjector(inj)
					}
					if _, err := Run(ctx, tc.node); err == nil {
						t.Fatal("the statement did not fail")
					}
					ran := slices.ContainsFunc(ctx.stages, started)
					if want := tc.staged && workers > 1; ran != want {
						t.Fatalf("a stage started: %v, want %v", ran, want)
					}
					st := ctx.Pool.Stats()
					if st.Hits+st.Misses != st.Puts || st.Puts < 8 {
						t.Errorf("pool after a failed run: %+v (want Hits+Misses == Puts, several batches)", st)
					}
				})
			}
		})
	}
}
