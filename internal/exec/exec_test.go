package exec

import (
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/expr"
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
	return &Context{Store: store, Runtime: rt, Domain: rt.DefaultDomain(), Clock: clock, BatchSize: 64}
}

func scan(lo, hi int64) *plan.Scan {
	return &plan.Scan{Table: "video", Sch: catalog.VideoSchema, Lo: lo, Hi: hi}
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
	out, err := Run(ctx, &plan.Filter{Input: scan(0, 10), Pred: pred})
	if err != nil || out.Len() != 5 {
		t.Fatalf("filter rows = %d, %v", out.Len(), err)
	}
	// Predicate with unknown column errors.
	bad := expr.NewCmp(expr.OpEq, colx("ghost"), intc(1))
	if _, err := Run(ctx, &plan.Filter{Input: scan(0, 10), Pred: bad}); err == nil {
		t.Error("unknown column should error")
	}
	// Unknown table errors.
	if _, err := Run(ctx, &plan.Filter{Input: &plan.Scan{Table: "nope", Sch: catalog.VideoSchema, Hi: -1}, Pred: pred}); err == nil {
		t.Error("unknown table should error")
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
