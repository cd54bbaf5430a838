package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

func testCtx(t *testing.T, ds vision.Dataset) *Context {
	t.Helper()
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateVideo("video", ds); err != nil {
		t.Fatal(err)
	}
	clock := &simclock.Clock{}
	rt := udf.NewRuntime(catalog.New(), clock)
	// Workers 1: the serial engine, the reference every parallel test
	// compares against; a test that wants the default sets 0 itself.
	return &Context{Store: store, Runtime: rt, Domain: rt.DefaultDomain(), Clock: clock, BatchSize: 64, Workers: 1}
}

func scan(lo, hi int64) *plan.Scan {
	return &plan.Scan{Table: "video", Sch: catalog.VideoSchema, Lo: lo, Hi: hi}
}

// scanWhere is scan(lo, hi) keeping the frames that satisfy where.
func scanWhere(lo, hi int64, where expr.Expr) *plan.Scan {
	s := scan(lo, hi)
	s.Where = where
	return s
}

func intc(v int64) expr.Expr     { return expr.NewConst(types.NewInt(v)) }
func strc(v string) expr.Expr    { return expr.NewConst(types.NewString(v)) }
func colx(name string) expr.Expr { return expr.NewColumn(name) }

func TestScanChargesAndBounds(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	out, err := Run(ctx, scan(10, 200))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 190 {
		t.Fatalf("rows = %d", out.Len())
	}
	if got := ctx.Clock.Snapshot()[simclock.CatReadVideo]; got != 190*1800*1000 {
		t.Errorf("read charge = %v", got)
	}
	// Hi = -1 reads to the end.
	out, err = Run(ctx, scan(13990, -1))
	if err != nil || out.Len() != 10 {
		t.Errorf("tail scan = %d rows, %v", out.Len(), err)
	}
}

func TestFilterAndErrors(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	pred := expr.NewCmp(expr.OpGe, colx("id"), intc(5))
	out, err := Run(ctx, scanWhere(0, 10, pred))
	if err != nil || out.Len() != 5 {
		t.Fatalf("filter rows = %d, %v", out.Len(), err)
	}
	// Predicate with unknown column errors.
	bad := expr.NewCmp(expr.OpEq, colx("ghost"), intc(1))
	if _, err := Run(ctx, scanWhere(0, 10, bad)); err == nil || !strings.HasPrefix(err.Error(), `exec: filter "ghost = 1": `) {
		t.Errorf("unknown column: err = %v", err)
	}
	// Unknown table errors.
	if _, err := Run(ctx, &plan.Scan{Table: "nope", Sch: catalog.VideoSchema, Hi: -1, Where: pred}); err == nil {
		t.Error("unknown table should error")
	}
}

// TestScanWhereDropsEmptiedBatches: a scan passes on only the batches
// its Where leaves rows in, compacted in place, pooled or not, and
// charges RowCost for every row it read, kept or not.
func TestScanWhereDropsEmptiedBatches(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		ctx := testCtx(t, vision.Jackson)
		ctx.BatchSize = 8
		if pooled {
			ctx.Pool = types.NewBatchPool()
		}
		// Only the sixth of eight batches holds frames the Where keeps.
		where := expr.NewAnd(expr.NewCmp(expr.OpGe, colx("id"), intc(42)), expr.NewCmp(expr.OpLt, colx("id"), intc(46)))
		it, err := build(ctx, scanWhere(0, 64, where))
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		batches := 0
		for {
			b, err := it.next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if b.Len() == 0 {
				t.Fatalf("pooled=%v: an empty batch was passed on", pooled)
			}
			batches++
			for r := 0; r < b.Len(); r++ {
				got = append(got, b.At(r, 0).Int())
			}
			ctx.putBatch(b)
		}
		if batches != 1 || fmt.Sprint(got) != "[42 43 44 45]" {
			t.Errorf("pooled=%v: %d batches with ids %v, want one with [42 43 44 45]", pooled, batches, got)
		}
		clock := ctx.Clock.Snapshot()
		if clock[simclock.CatOther] != 64*costs.RowCost || clock[simclock.CatReadVideo] != 64*costs.ReadVideoCost {
			t.Errorf("pooled=%v: clock %v, want RowCost and ReadVideoCost for each of 64 frames", pooled, clock)
		}
	}
}

// TestGuardsOnlyWhenChecked: a Run with neither a deadline nor an
// injector builds its operators bare — Scan → Apply → Apply → Project
// is four iterators — and one with either wraps every operator in a
// deadline guard.
func TestGuardsOnlyWhenChecked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		set    func(*Context)
		guards int
	}{
		{"neither", func(*Context) {}, 0},
		{"a deadline", func(c *Context) { c.Deadline = time.Hour }, 4},
		{"an injector", func(c *Context) { c.Faults = faults.New(1) }, 4},
	} {
		ctx := testCtx(t, mixed)
		tc.set(ctx)
		ctx.armDeadline()
		node := &plan.Project{Input: applyOverApply(0, 40), Items: []plan.ProjItem{{Name: "id", E: colx("id"), Kind: types.KindInt}}}
		it, err := build(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		var ops, guards int
		for it != nil {
			switch x := it.(type) {
			case *guardIter:
				guards++
				it = x.in
			case *projectIter:
				ops++
				it = x.in
			case *applyIter:
				ops++
				it = x.in
			case *scanIter:
				ops++
				it = nil
			default:
				t.Fatalf("%s: unexpected iterator %T", tc.name, it)
			}
		}
		if ops != 4 || guards != tc.guards {
			t.Errorf("%s: %d operators and %d guards, want 4 and %d", tc.name, ops, guards, tc.guards)
		}
	}
}

func TestProjectEvaluatesCheapCalls(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	p := &plan.Project{Input: scan(0, 3), Items: []plan.ProjItem{
		{Name: "id2", E: expr.NewArith(expr.OpMul, colx("id"), intc(2)), Kind: types.KindInt},
		{Name: "a", E: expr.NewCall("Area", strc("0.1,0.1,0.5,0.5")), Kind: types.KindFloat},
	}}
	out, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(2, 0).Int() != 4 {
		t.Errorf("id2 = %v", out.At(2, 0))
	}
	if got := out.At(0, 1).Float(); got < 0.2499 || got > 0.2501 {
		t.Errorf("area = %v", got)
	}
}

func TestGroupByAggregates(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	g := &plan.GroupBy{
		Input: scan(0, 10),
		Aggs: []plan.Agg{
			{Kind: plan.AggCount, Name: "n"},
			{Kind: plan.AggSum, Arg: colx("id"), Name: "s"},
			{Kind: plan.AggAvg, Arg: colx("id"), Name: "a"},
			{Kind: plan.AggMin, Arg: colx("id"), Name: "lo"},
			{Kind: plan.AggMax, Arg: colx("id"), Name: "hi"},
		},
	}
	out, err := Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", out.Len())
	}
	if out.At(0, 0).Int() != 10 || out.At(0, 1).Float() != 45 || out.At(0, 2).Float() != 4.5 {
		t.Errorf("count/sum/avg = %v/%v/%v", out.At(0, 0), out.At(0, 1), out.At(0, 2))
	}
	if out.At(0, 3).Int() != 0 || out.At(0, 4).Int() != 9 {
		t.Errorf("min/max = %v/%v", out.At(0, 3), out.At(0, 4))
	}
}

func TestGroupByEmptyInputGlobalRow(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	g := &plan.GroupBy{
		Input: scan(5, 5),
		Aggs:  []plan.Agg{{Kind: plan.AggCount, Name: "n"}, {Kind: plan.AggAvg, Arg: colx("id"), Name: "a"}},
	}
	out, err := Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.At(0, 0).Int() != 0 {
		t.Fatalf("empty global aggregate: %v", out)
	}
	if !out.At(0, 1).IsNull() {
		t.Error("AVG over empty input should be NULL")
	}
	// With keys, empty input yields no rows.
	g2 := &plan.GroupBy{Input: scan(5, 5), Keys: []string{"id"}, Aggs: []plan.Agg{{Kind: plan.AggCount, Name: "n"}}}
	out2, err := Run(ctx, g2)
	if err != nil || out2.Len() != 0 {
		t.Errorf("keyed empty group rows = %d, %v", out2.Len(), err)
	}
	// Unknown key errors.
	g3 := &plan.GroupBy{Input: scan(0, 5), Keys: []string{"ghost"}, Aggs: nil}
	if _, err := Run(ctx, g3); err == nil {
		t.Error("unknown group key should error")
	}
}

func TestLimitAcrossBatches(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.BatchSize = 8
	out, err := Run(ctx, &plan.Limit{Input: scan(0, 100), N: 20})
	if err != nil || out.Len() != 20 {
		t.Fatalf("limit rows = %d, %v", out.Len(), err)
	}
	out, err = Run(ctx, &plan.Limit{Input: scan(0, 5), N: 0})
	if err != nil || out.Len() != 0 {
		t.Errorf("limit 0 rows = %d", out.Len())
	}
}

func TestReuseApplyStoresAndServesAcrossRuns(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	node := &plan.ReuseApply{
		Input:     scan(0, 30),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
	first, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	stats := ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 30 || stats.Reused != 0 {
		t.Fatalf("first run stats = %+v", stats)
	}
	second, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	stats = ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 30 || stats.Reused != 30 {
		t.Fatalf("second run stats = %+v", stats)
	}
	if first.Len() != second.Len() {
		t.Fatalf("rows differ across reuse: %d vs %d", first.Len(), second.Len())
	}
	for r := 0; r < first.Len(); r++ {
		for c := 0; c < len(first.Schema()); c++ {
			if first.Schema()[c].Kind == types.KindBytes {
				continue
			}
			if !types.Equal(first.At(r, c), second.At(r, c)) {
				t.Fatalf("row %d col %d differs", r, c)
			}
		}
	}
}

// TestCoveredStepKeepsSourcePrecedence is the shape of the chaos
// workload's last query: a logical detector over frames 60..179 whose
// first source view (YoloTiny's) holds the frames below 120 and whose
// second (FasterRCNNResnet50's) holds them all. The first scan batch,
// 60..123, is dense and the second view covers it, but the first view
// serves most of it, and those rows must stay the first view's: the
// covered step is only taken by the view that gets the whole batch.
func TestCoveredStepKeepsSourcePrecedence(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	det := func(lo, hi int64, eval string, sources ...string) *plan.ReuseApply {
		a := &plan.ReuseApply{Input: scan(lo, hi), Args: []expr.Expr{colx("frame")}, Eval: eval,
			TableUDF: true, Out: catalog.DetectorSchema, KeyCols: []string{"id"}}
		for _, v := range sources {
			a.Sources = append(a.Sources, plan.ApplySource{UDF: eval, ViewName: v})
		}
		return a
	}
	run := func(n plan.Node) []string {
		t.Helper()
		out, err := Run(ctx, &plan.Project{Input: n, Items: idBBoxScore})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, out.Len())
		for r := range rows {
			rows[r] = fmt.Sprint(out.Row(r))
		}
		return rows
	}
	yolo, frcnn := det(0, 120, vision.YoloTiny), det(0, 260, vision.FasterRCNN50)
	yolo.StoreView, frcnn.StoreView = "yolo_view", "frcnn_view"
	run(yolo)
	run(frcnn)
	first := run(det(60, 120, vision.YoloTiny, "yolo_view"))
	if slices.Equal(first, run(det(60, 120, vision.FasterRCNN50, "frcnn_view"))) {
		t.Fatal("the two views answer frames 60..119 alike; the test needs them to differ")
	}
	want := append(first, run(det(120, 180, vision.FasterRCNN50, "frcnn_view"))...)
	if got := run(det(60, 180, vision.FasterRCNN50, "yolo_view", "frcnn_view")); !slices.Equal(got, want) {
		t.Errorf("frames 60..179 from both views:\n%s\nwant the first view's rows below 120:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestServedAndEvaluatedRowsMergeInRowOrder: a view that holds every
// third frame serves those rows of each batch and the rest are
// evaluated, so the probe's triples and the evaluated rows' interleave;
// merged by input row they must give the rows, in order, of a run that
// evaluates every frame.
func TestServedAndEvaluatedRowsMergeInRowOrder(t *testing.T) {
	det := func(in plan.Node, views bool) plan.Node {
		a := &plan.ReuseApply{Input: in, Args: []expr.Expr{colx("frame")}, Eval: vision.FasterRCNN50,
			TableUDF: true, Out: catalog.DetectorSchema, KeyCols: []string{"id"}}
		if views {
			a.Sources, a.StoreView = []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}}, "det_view"
		}
		return &plan.Project{Input: a, Items: idBBoxScore}
	}
	rows := func(ctx *Context, n plan.Node) []string {
		t.Helper()
		out, err := Run(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, out.Len())
		for r := range rows {
			rows[r] = fmt.Sprint(out.Row(r))
		}
		return rows
	}
	ctx := testCtx(t, vision.MediumUADetrac)
	thirds := expr.NewCmp(expr.OpEq, expr.NewArith(expr.OpMod, colx("id"), intc(3)), intc(0))
	rows(ctx, det(scanWhere(0, 90, thirds), true))
	got := rows(ctx, det(scan(0, 90), true))
	if st := ctx.Runtime.CounterSnapshot()[strings.ToLower(vision.FasterRCNN50)]; st.Reused != 30 || st.Evaluated != 90 {
		t.Fatalf("stats %+v: want 30 frames served and 60 more evaluated", st)
	}
	if want := rows(testCtx(t, vision.MediumUADetrac), det(scan(0, 90), false)); !slices.Equal(got, want) {
		t.Errorf("served and evaluated rows:\n%s\nwant every frame evaluated:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestReuseApplyScalar(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	det := &plan.ReuseApply{
		Input:    scan(0, 10),
		Args:     []expr.Expr{colx("frame")},
		Eval:     vision.FasterRCNN50,
		TableUDF: true,
		Out:      catalog.DetectorSchema,
		KeyCols:  []string{"id"},
	}
	ct, _ := catalog.New().UDF("CarType")
	node := &plan.ReuseApply{
		Input:     det,
		Args:      []expr.Expr{colx("frame"), colx("bbox")},
		Sources:   []plan.ApplySource{{UDF: "CarType", ViewName: "ct_view"}},
		Eval:      "CarType",
		StoreView: "ct_view",
		Out:       ct.Outputs,
		KeyCols:   []string{"bbox", "id"},
	}
	out, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no detections on 10 dense frames")
	}
	idx := out.Schema().IndexOf("cartype_out")
	if idx < 0 {
		t.Fatalf("missing output column in %s", out.Schema())
	}
	for r := 0; r < out.Len(); r++ {
		if out.At(r, idx).IsNull() {
			t.Fatal("scalar output missing")
		}
	}
	// Bad key column errors at build time.
	bad := &plan.ReuseApply{Input: scan(0, 5), Eval: "CarType", KeyCols: []string{"ghost"}, Out: ct.Outputs}
	if _, err := Run(ctx, bad); err == nil {
		t.Error("bad key column should error")
	}
}

func TestReuseApplyArgErrors(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	// Table UDF with a non-bytes argument.
	node := &plan.ReuseApply{
		Input:    scan(0, 3),
		Args:     []expr.Expr{colx("id")},
		Eval:     vision.FasterRCNN50,
		TableUDF: true,
		Out:      catalog.DetectorSchema,
		KeyCols:  []string{"id"},
	}
	if _, err := Run(ctx, node); err == nil {
		t.Error("non-frame table UDF arg should error")
	}
	// Unknown UDF.
	node2 := &plan.ReuseApply{
		Input: scan(0, 3), Args: []expr.Expr{colx("frame")}, Eval: "Ghost",
		TableUDF: true, Out: catalog.DetectorSchema, KeyCols: []string{"id"},
	}
	if _, err := Run(ctx, node2); err == nil {
		t.Error("unknown UDF should error")
	}
}

func TestFormatBatch(t *testing.T) {
	b := types.NewBatch(types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	))
	b.MustAppendRow(types.NewInt(1), types.NewString("car"))
	b.MustAppendRow(types.NewInt(2), types.NewString(strings.Repeat("x", 60)))
	out := FormatBatch(b)
	if !strings.Contains(out, "id") || !strings.Contains(out, "(2 rows)") {
		t.Errorf("format = %q", out)
	}
	if !strings.Contains(out, "...") {
		t.Error("long values should be elided")
	}
}

func TestUnknownPlanNode(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	if _, err := Run(ctx, unknownNode{}); err == nil {
		t.Error("unknown node should error")
	}
}

type unknownNode struct{}

func (unknownNode) Schema() types.Schema  { return nil }
func (unknownNode) Children() []plan.Node { return nil }
func (unknownNode) Describe() string      { return "unknown" }

// TestScanDropsEnforcedIDBounds holds the scan's selection to a
// row-at-a-time evaluation of its whole Where: random conjunctions of id
// comparisons — either way round, every operator, integer, fractional,
// NULL and text constants, some OR'd together — over random id ranges
// must keep the same frames, fail alike, and charge RowCost for every
// frame read, whatever conjuncts the range let the scan drop; and the
// trials must drop some and keep some.
func TestScanDropsEnforcedIDBounds(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	rng := rand.New(rand.NewSource(44))
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	dropped, kept := 0, 0
	for trial := 0; trial < 400; trial++ {
		lo := int64(rng.Intn(100))
		hi := lo + int64(rng.Intn(40))
		atom := func() expr.Expr {
			x := lo - 3 + int64(rng.Intn(int(hi-lo)+6))
			var c expr.Expr
			switch rng.Intn(8) {
			case 0:
				c = expr.NewConst(types.NewFloat(float64(x) + 0.5))
			case 1:
				c = expr.NewConst(types.Null)
			case 2:
				c = strc(fmt.Sprint(x))
			default:
				c = intc(x)
			}
			op := ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				return expr.NewCmp(op, colx("id"), c)
			}
			return expr.NewCmp(op, c, colx("id"))
		}
		var conj []expr.Expr
		for range 1 + rng.Intn(3) {
			if e := atom(); rng.Intn(4) == 0 {
				conj = append(conj, expr.NewOr(e, atom()))
			} else {
				conj = append(conj, e)
			}
		}
		where := expr.CombineConjuncts(conj)
		var want []int64
		var wantErr error
		for id := lo; id < hi && wantErr == nil; id++ {
			ok, err := expr.EvalBool(where, expr.MapResolver{Cols: map[string]types.Datum{"id": types.NewInt(id)}})
			if wantErr = err; ok {
				want = append(want, id)
			}
		}
		if got := unenforced(where, catalog.VideoSchema, lo, hi); got == nil || len(expr.SplitConjuncts(got)) < len(conj) {
			dropped++
		} else {
			kept++
		}
		before := ctx.Clock.Snapshot()[simclock.CatOther]
		out, err := Run(ctx, scanWhere(lo, hi, where))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s over [%d, %d): error %v, row at a time %v", where, lo, hi, err, wantErr)
		}
		if err != nil {
			continue
		}
		var got []int64
		for r := 0; r < out.Len(); r++ {
			got = append(got, out.At(r, 0).Int())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s over [%d, %d): ids %v, row at a time %v", where, lo, hi, got, want)
		}
		if charged := ctx.Clock.Snapshot()[simclock.CatOther] - before; charged != time.Duration(hi-lo)*costs.RowCost {
			t.Fatalf("%s over [%d, %d): charged %v for %d frames", where, lo, hi, charged, hi-lo)
		}
	}
	if dropped == 0 || kept == 0 {
		t.Fatalf("%d Wheres lost a conjunct to the range and %d lost none; want some of each", dropped, kept)
	}
}
