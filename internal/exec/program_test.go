package exec

import (
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/types"
	"eva/internal/vision"
)

// The operators' use of bound expression programs: the column-major
// projection and its error order, the pooled and unpooled filter
// outputs, typed MIN/MAX, and appends that fail the statement where
// they used to panic.

func TestProjectColumnsAndComputedItems(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		ctx := testCtx(t, vision.Jackson)
		if pooled {
			ctx.Pool = types.NewBatchPool()
		}
		ctx.BatchSize = 4
		p := &plan.Project{Input: scan(0, 10), Items: []plan.ProjItem{
			{Name: "seconds", E: colx("seconds")},
			{Name: "id", E: colx("ID")},
			{Name: "next", E: expr.NewArith(expr.OpAdd, colx("id"), intc(1))},
			{Name: "late", E: expr.NewCmp(expr.OpGe, colx("id"), intc(7))},
			{Name: "id_again", E: colx("id")},
		}}
		if got := p.Schema().String(); got != "(seconds FLOAT, id INTEGER, next INTEGER, late BOOLEAN, id_again INTEGER)" {
			t.Fatalf("schema = %s", got)
		}
		out, err := Run(ctx, p)
		if err != nil || out.Len() != 10 {
			t.Fatalf("pooled=%v: %d rows, %v", pooled, out.Len(), err)
		}
		for r := 0; r < out.Len(); r++ {
			id := int64(r)
			if out.At(r, 1).Int() != id || out.At(r, 2).Int() != id+1 || out.At(r, 3).Bool() != (id >= 7) || out.At(r, 4).Int() != id {
				t.Fatalf("pooled=%v row %d = %v", pooled, r, out.Row(r))
			}
		}
	}
}

func TestProjectReportsFirstFailingRowThenItem(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	div := func(by int64) expr.Expr { // fails on the row whose id is by
		return expr.NewArith(expr.OpDiv, intc(100), expr.NewArith(expr.OpSub, colx("id"), intc(by)))
	}
	for _, tc := range []struct {
		a, b int64
		want string // the failing item
	}{
		{a: 5, b: 2, want: "(id - 2)"}, // the second item fails on the earlier row
		{a: 2, b: 5, want: "(id - 2)"},
		{a: 3, b: 3, want: "a"}, // same row: the first item is the one reached
	} {
		p := &plan.Project{Input: scan(0, 8), Items: []plan.ProjItem{
			{Name: "a", E: div(tc.a)}, {Name: "b", E: div(tc.b)},
		}}
		_, err := Run(ctx, p)
		if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
			t.Fatalf("a=%d b=%d: err = %v", tc.a, tc.b, err)
		}
		item := p.Items[0].E.String()
		if tc.want != "a" {
			item = div(2).String()
		}
		if !strings.Contains(err.Error(), "exec: project \""+item+"\"") {
			t.Errorf("a=%d b=%d: err = %v, want item %s", tc.a, tc.b, err, item)
		}
	}
}

func TestWrongPlanKindFailsTheStatement(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	// Each plan declares a kind its values do not have; the append used
	// to panic, now the statement fails.
	plans := []plan.Node{
		&plan.Project{Input: scan(0, 3), Items: []plan.ProjItem{{Name: "x", E: colx("id"), Kind: types.KindString}}},
		&plan.Project{Input: scan(0, 3), Items: []plan.ProjItem{{Name: "x", E: expr.NewCall("Area", strc("0,0,1,1")), Kind: types.KindString}}},
		&plan.GroupBy{Input: scan(0, 3), Aggs: []plan.Agg{{Kind: plan.AggMin, Arg: colx("id"), Name: "lo", ArgKind: types.KindString}}},
	}
	for _, n := range plans {
		if _, err := Run(ctx, n); err == nil || !strings.Contains(err.Error(), "expects TEXT, got") {
			t.Errorf("%s: err = %v", n.Describe(), err)
		}
	}
}

// TestFilterCompactsPooledAndCopiesShared: a scan's Where compacts the
// batch the scan owns in place, pooled or not.
func TestFilterCompactsPooledAndCopiesShared(t *testing.T) {
	pred := expr.NewOr(
		expr.NewCmp(expr.OpLt, colx("id"), intc(3)),
		expr.NewNot(expr.NewCmp(expr.OpLt, colx("id"), intc(17))))
	for _, pooled := range []bool{false, true} {
		ctx := testCtx(t, vision.Jackson)
		if pooled {
			ctx.Pool = types.NewBatchPool()
		}
		ctx.BatchSize = 8
		out, err := Run(ctx, scanWhere(0, 20, pred))
		if err != nil || out.Len() != 6 {
			t.Fatalf("pooled=%v: %d rows, %v", pooled, out.Len(), err)
		}
		for r, want := range []int64{0, 1, 2, 17, 18, 19} {
			if got := out.At(r, 0).Int(); got != want {
				t.Fatalf("pooled=%v row %d = %d, want %d", pooled, r, got, want)
			}
		}
	}
}

func TestAggregateKinds(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	det := &plan.ReuseApply{
		Input: scan(0, 6), Args: []expr.Expr{colx("frame")}, Eval: vision.FasterRCNN50,
		TableUDF: true, Out: catalog.DetectorSchema, KeyCols: []string{"id"},
	}
	g := &plan.GroupBy{Input: det, Aggs: []plan.Agg{
		{Kind: plan.AggMin, Arg: colx("label"), Name: "lo"},
		{Kind: plan.AggMax, Arg: colx("id"), Name: "hi"},
		{Kind: plan.AggMax, Arg: expr.NewCall("Area", colx("bbox")), Name: "big"},
	}}
	if got := g.Schema().String(); got != "(lo TEXT, hi INTEGER, big FLOAT)" {
		t.Fatalf("schema = %s", got)
	}
	out, err := Run(ctx, g)
	if err != nil || out.Len() != 1 {
		t.Fatalf("rows = %v, %v", out, err)
	}
	if out.At(0, 0).Kind() != types.KindString || out.At(0, 1).Int() != 5 || out.At(0, 2).Float() <= 0 {
		t.Errorf("row = %v", out.Row(0))
	}
	for _, kind := range []plan.AggKind{plan.AggSum, plan.AggAvg} {
		bad := &plan.GroupBy{Input: det, Aggs: []plan.Agg{{Kind: kind, Arg: colx("label"), Name: "s"}}}
		_, err := Run(ctx, bad)
		if want := "exec: " + kind.String() + "(label): argument is TEXT, want a numeric kind"; err == nil || err.Error() != want {
			t.Errorf("%s(label): err = %v, want %s", kind, err, want)
		}
	}
}

// TestApplyArgumentNestedCall routes a call nested in a UDF argument
// through the eval phase's caller, at one worker and at four (each
// worker evaluates through its own bound programs).
func TestApplyArgumentNestedCall(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := testCtx(t, vision.MediumUADetrac)
		ctx.Workers = workers
		det := &plan.ReuseApply{
			Input: scan(0, 4), Args: []expr.Expr{colx("frame")}, Eval: vision.FasterRCNN50,
			TableUDF: true, Out: catalog.DetectorSchema, KeyCols: []string{"id"},
		}
		lic, _ := catalog.New().UDF("License")
		node := &plan.ReuseApply{
			Input: det, Eval: "License", Out: lic.Outputs, KeyCols: []string{"bbox", "id"},
			Args: []expr.Expr{colx("frame"), colx("bbox")},
		}
		if out, err := Run(ctx, node); err != nil || out.Len() == 0 {
			t.Fatalf("workers=%d: %v, %v", workers, out, err)
		}
		// With Area(bbox) for the bbox, License is handed the nested
		// call's FLOAT and rejects it: the call ran, through the row's
		// caller.
		node.Args = []expr.Expr{colx("frame"), expr.NewCall("Area", colx("bbox"))}
		if _, err := Run(ctx, node); err == nil || !strings.Contains(err.Error(), "License expects (frame, bbox)") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		node.Args = []expr.Expr{colx("frame"), expr.NewCall("Area", colx("frame"))}
		if _, err := Run(ctx, node); err == nil || !strings.Contains(err.Error(), "exec: apply arg \"area(frame)\": ") ||
			!strings.Contains(err.Error(), "Area expects (bbox)") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}
