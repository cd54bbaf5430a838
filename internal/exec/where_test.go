package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/vision"
)

// mixed is a small video with about 1.5 objects per frame: many frames
// have no detection, so the detector's view holds zero-row keys, and
// many have several.
var mixed = vision.Dataset{Name: "mixed", Frames: 200, Width: 600, Height: 400, Density: 1.5, Seed: 0x5EED}

// idBBoxScore is the projection every statement of whereDigest ends in.
var idBBoxScore = []plan.ProjItem{
	{Name: "id", E: colx("id"), Kind: types.KindInt},
	{Name: "bbox", E: colx("bbox"), Kind: types.KindString},
	{Name: "score", E: colx("score"), Kind: types.KindFloat},
}

// detector is the detector apply over the frames in [lo, hi), storing
// into det_view, with the selections where.
func detector(lo, hi int64, where ...expr.Expr) *plan.ReuseApply {
	return &plan.ReuseApply{
		Input:     scan(lo, hi),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
		Where:     where,
	}
}

// detThenCarType is the VBENCH chain a detector query plans to: a
// detector whose Where keeps the cars, the CarType classifier on them
// with two selections on its result — the second, where, on a detector
// column nothing above it carries — and the projection, each apply
// narrowed to what the operators above it read.
func detThenCarType(lo, hi int64, where expr.Expr) *plan.Project {
	ct := carTypeApply(detector(lo, hi, expr.NewCmp(expr.OpEq, colx("label"), strc("car"))), "ct_view", false)
	ct.Where = []expr.Expr{expr.NewCmp(expr.OpNe, colx("cartype_out"), strc("Nissan")), where}
	return plan.Fuse(&plan.Project{Input: ct, Items: idBBoxScore}).(*plan.Project)
}

// detectorCars is the detector alone, its Where keeping the cars where
// admits.
func detectorCars(lo, hi int64, where expr.Expr) *plan.Project {
	det := detector(lo, hi, expr.NewCmp(expr.OpEq, colx("label"), strc("car")), where)
	return plan.Fuse(&plan.Project{Input: det, Items: idBBoxScore}).(*plan.Project)
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
// selection, fails on injected CarType faults, serves everything, and
// runs the detector alone over served and fresh frames. It also counts
// the frames the detector's view holds with no rows. With oracle set,
// each statement runs through oracleRun instead of Run.
func whereDigest(t *testing.T, oracle bool, workers int, pooled bool) (digest string, zeroRow int) {
	t.Helper()
	ctx := testCtx(t, mixed)
	ctx.BatchSize, ctx.Workers = 16, workers
	if pooled {
		ctx.Pool = types.NewBatchPool()
		ctx.Pool.SetPoison(true)
	}
	var sb strings.Builder
	run := func(name string, n *plan.Project) {
		var out *types.Batch
		var err error
		if oracle {
			out, err = oracleRun(ctx, n)
		} else {
			out, err = Run(ctx, n)
		}
		fmt.Fprintf(&sb, "== %s\n", name)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
		} else {
			sb.WriteString(FormatBatch(out))
		}
		fmt.Fprintf(&sb, "clock: %v\ncounters: %v\n", ctx.Clock.Snapshot(), ctx.Runtime.CounterSnapshot())
	}
	run("cold", detThenCarType(0, 60, areaOver(0.05)))
	run("half served", detThenCarType(30, 120, areaOver(0.05)))
	// A failing statement charges what the serial engine would only
	// when no pipeline stage runs ahead of the failure; an injector,
	// even one with no rules, keeps stages off (Context.maybeStage).
	ctx.Faults = faults.New(0)
	run("selection fails", detThenCarType(100, 160, divByZeroAt(130)))
	inj := faults.New(11)
	inj.Rule(faults.SiteUDF("CarType"), faults.Rule{Kind: faults.Permanent, Prob: 0.05})
	ctx.Faults = inj
	ctx.Runtime.SetInjector(inj)
	run("udf fails", detThenCarType(120, 200, areaOver(0.05)))
	ctx.Faults = nil
	ctx.Runtime.SetInjector(nil)
	run("served", detThenCarType(0, 120, areaOver(0.02)))
	run("detector", detectorCars(100, 200, areaOver(0.05)))
	for _, view := range []string{"det_view", "ct_view"} {
		fmt.Fprintf(&sb, "%s\n%s", view, FormatBatch(ctx.Store.View(view).Scan()))
	}
	det, seen := ctx.Store.View("det_view").Scan(), map[int64]bool{}
	for r := 0; r < det.Len(); r++ {
		seen[det.At(r, 0).Int()] = true
	}
	return sb.String(), 200 - len(seen) // frames [0, 200) all ran to completion
}

// oracleRun is the reference for n, a projection over an apply with
// selections: it runs the apply without its Where, carrying every
// column, and over each output batch each selection row at a time with
// expr.EvalBool over the rows the one before it kept — charged RowCost
// a row it sees, its first error reported as "exec: filter %q: …" —
// then the projection, charged RowCost a row as a Project is. The
// lifecycle around the pulls is Run's.
func oracleRun(ctx *Context, n *plan.Project) (*types.Batch, error) {
	top := n.Input.(*plan.ReuseApply)
	bare := &plan.ReuseApply{Input: top.Input, Args: top.Args, Sources: top.Sources, Eval: top.Eval,
		StoreView: top.StoreView, TableUDF: top.TableUDF, Out: top.Out, KeyCols: top.KeyCols, FuzzyBBox: top.FuzzyBBox}
	sch, out := bare.Schema(), types.NewBatch(n.Schema())
	ctx.armDeadline()
	ctx.stages, ctx.applies = nil, nil
	ctx.stored = nil // lint:nolock no stage of this run exists yet
	defer func() {
		ctx.stopStages()
		for _, a := range ctx.applies {
			a.abort()
		}
		ctx.applies = nil
	}()
	warmSchemas(bare)
	it, err := build(ctx, bare)
	if err != nil {
		return nil, err
	}
	for {
		b, err := it.next()
		if err != nil || b == nil {
			return out, err
		}
		rows := make([]expr.MapResolver, b.Len())
		for r := range rows {
			rows[r].Cols = map[string]types.Datum{}
			for c, col := range sch {
				rows[r].Cols[col.Name] = b.At(r, c)
			}
		}
		ctx.putBatch(b)
		for _, pred := range top.Where {
			ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, len(rows))
			kept := rows[:0]
			for _, row := range rows {
				ok, err := expr.EvalBool(pred, row)
				if err != nil {
					return nil, fmt.Errorf("exec: filter %q: %w", pred, err)
				}
				if ok {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, len(rows))
		for _, row := range rows {
			vals := make([]types.Datum, len(n.Items))
			for i, item := range n.Items {
				if vals[i], err = expr.Eval(item.E, row); err != nil {
					return nil, err
				}
			}
			if err := out.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
	}
}

// TestFoldedWhereMatchesFilter: an apply that runs its selections in
// its Where and carries only the live columns is, to every observer —
// rows, first error text, virtual clock, UDF counters and view rows —
// the apply without them under a row-at-a-time selection (oracleRun),
// over served, evaluated, zero-row and failing keys, table and scalar
// UDFs, at 1 and 4 workers, pooled (with poisoning) and not.
func TestFoldedWhereMatchesFilter(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/pooled=%v", workers, pooled), func(t *testing.T) {
				want, zeroRow := whereDigest(t, true, workers, pooled)
				for _, marker := range []string{"error: exec: filter", "error: exec: udf CarType"} {
					if !strings.Contains(want, marker) {
						t.Fatalf("the session does not cover %q:\n%s", marker, want)
					}
				}
				if zeroRow == 0 {
					t.Fatal("no frame without detections: the session does not cover zero-row keys")
				}
				if got, _ := whereDigest(t, false, workers, pooled); got != want {
					t.Errorf("the Where differs from the selection over the apply\n%s", firstDiff(got, want))
				}
			})
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

// scanFails gives the scan at the bottom of the chain the Where where.
func scanFails(chain *plan.Project, where expr.Expr) *plan.Project {
	var n plan.Node = chain
	for len(n.Children()) > 0 {
		n = n.Children()[0]
	}
	n.(*plan.Scan).Where = where
	return chain
}

// TestFailedRunRecyclesEveryBatch: a pooled Run that fails part way
// through its input — in an apply's Where, in a scan's, or in a UDF —
// returns every batch it drew to the pool — the scan
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
		{"folded selection", detThenCarType(0, 120, divByZeroAt(70)), false, true},
		{"selection over a scan", scanWhere(0, 120, divByZeroAt(70)), false, false},
		{"selection in the scan under the applies", scanFails(detThenCarType(0, 120, areaOver(0.05)), divByZeroAt(70)), false, true},
		{"udf fault", detThenCarType(0, 120, areaOver(0.05)), true, false},
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
