package plan

import (
	"fmt"
	"strings"
	"testing"

	"eva/internal/expr"
	"eva/internal/types"
)

func scanNode() *Scan {
	return &Scan{Table: "video", Lo: 0, Hi: 100, Sch: types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "frame", Kind: types.KindBytes},
	)}
}

func TestReuseApplySchemaConcat(t *testing.T) {
	a := &ReuseApply{
		Input:    scanNode(),
		Eval:     "FasterRCNNResnet50",
		TableUDF: true,
		Out: types.MustSchema(
			types.Column{Name: "label", Kind: types.KindString},
			types.Column{Name: "bbox", Kind: types.KindString},
		),
		KeyCols: []string{"id"},
	}
	sch := a.Schema()
	if len(sch) != 4 || sch[2].Name != "label" {
		t.Errorf("schema = %s", sch)
	}
	// Cached on second call.
	if &a.Schema()[0] != &sch[0] {
		t.Error("schema should be memoized")
	}
	if d, want := a.Describe(), "CrossApply(FasterRCNNResnet50, no-reuse, key=[id], cols=[id frame label bbox])"; d != want {
		t.Errorf("describe = %q, want %q", d, want)
	}
	a.Sources = []ApplySource{{UDF: "x", ViewName: "v1"}, {UDF: "y", ViewName: "v2"}}
	a.StoreView = "v1"
	a.TableUDF = false
	if d, want := a.Describe(), "ScalarApply(FasterRCNNResnet50, views=[v1,v2] store=v1, key=[id], cols=[id frame label bbox])"; d != want {
		t.Errorf("describe = %q, want %q", d, want)
	}
}

// TestReuseApplyCarriedColumns: Pass and Emit narrow the schema to the
// listed columns in schema order (nil carries all, empty none); the
// Where and the carried columns show in Describe.
func TestReuseApplyCarriedColumns(t *testing.T) {
	out := types.MustSchema(
		types.Column{Name: "label", Kind: types.KindString},
		types.Column{Name: "bbox", Kind: types.KindString},
	)
	for _, tc := range []struct {
		pass, emit []string
		cols       string
	}{
		{nil, nil, "[id frame label bbox]"},
		{[]string{"ID"}, nil, "[id label bbox]"},
		{nil, []string{"bbox"}, "[id frame bbox]"},
		{[]string{"frame", "id"}, []string{"bbox", "label"}, "[id frame label bbox]"},
		{[]string{}, []string{"bbox"}, "[bbox]"},
		{[]string{}, []string{}, "[]"},
	} {
		a := &ReuseApply{Input: scanNode(), Eval: "D", TableUDF: true, Out: out, KeyCols: []string{"id"}, Pass: tc.pass, Emit: tc.emit}
		if got := fmt.Sprint(a.Schema().Names()); got != tc.cols {
			t.Errorf("Pass %v Emit %v: schema %s, want %s", tc.pass, tc.emit, got, tc.cols)
		}
	}
	a := &ReuseApply{Input: scanNode(), Eval: "D", TableUDF: true, Out: out, KeyCols: []string{"id"},
		Where: []expr.Expr{
			expr.NewCmp(expr.OpEq, expr.NewColumn("label"), expr.NewConst(types.NewString("car"))),
			expr.NewCmp(expr.OpGt, expr.NewColumn("id"), expr.NewConst(types.NewInt(3))),
		},
		Pass: []string{"id"}, Emit: []string{"bbox"}}
	if d, want := a.Describe(), "CrossApply(D, no-reuse, key=[id], where=label = 'car'; id > 3, cols=[id bbox])"; d != want {
		t.Errorf("describe = %q, want %q", d, want)
	}
}

// TestReuseApplyNamesOutLikeConcat: an Out column whose name the input
// has is suffixed as types.Schema.Concat would, whatever is carried.
func TestReuseApplyNamesOutLikeConcat(t *testing.T) {
	out := types.MustSchema(types.Column{Name: "frame", Kind: types.KindString}, types.Column{Name: "frame_r", Kind: types.KindInt})
	full := scanNode().Schema().Concat(out)
	for _, emit := range [][]string{nil, {"frame_r"}} {
		a := &ReuseApply{Input: scanNode(), Eval: "D", Out: out, Pass: []string{"id"}, Emit: emit}
		sch := a.Schema()
		if got, want := sch[len(sch)-1], full[len(full)-1]; got != want {
			t.Errorf("Emit %v: last column %v, want %v as in %s", emit, got, want, full)
		}
	}
}

func TestProjectSchemaInference(t *testing.T) {
	p := &Project{Input: scanNode(), Items: []ProjItem{
		{Name: "id", E: expr.NewColumn("id")},
		{Name: "c", E: expr.NewConst(types.NewString("x"))},
		{Name: "b", E: expr.NewCmp(expr.OpGt, expr.NewColumn("id"), expr.NewConst(types.NewInt(1)))},
		{Name: "k", E: expr.NewCall("f"), Kind: types.KindFloat}, // explicit
		{Name: "g", E: expr.NewCall("g")},                        // inferred default
	}}
	sch := p.Schema()
	wantKinds := []types.Kind{types.KindInt, types.KindString, types.KindBool, types.KindFloat, types.KindString}
	for i, want := range wantKinds {
		if sch[i].Kind != want {
			t.Errorf("col %d kind = %v, want %v", i, sch[i].Kind, want)
		}
	}
	if !strings.Contains(p.Describe(), "AS id") {
		t.Errorf("describe = %q", p.Describe())
	}
}

func TestGroupBySchema(t *testing.T) {
	g := &GroupBy{
		Input: scanNode(),
		Keys:  []string{"id"},
		Aggs: []Agg{
			{Kind: AggCount, Name: "n"},
			{Kind: AggAvg, Arg: expr.NewColumn("id"), Name: "a"},
		},
	}
	sch := g.Schema()
	if len(sch) != 3 || sch[1].Kind != types.KindInt || sch[2].Kind != types.KindFloat {
		t.Errorf("schema = %s", sch)
	}
	if d := g.Describe(); !strings.Contains(d, "COUNT(*)") || !strings.Contains(d, "AVG(id)") {
		t.Errorf("describe = %q", d)
	}
}

func TestAggKindNames(t *testing.T) {
	names := map[AggKind]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestExplainTree(t *testing.T) {
	sc := scanNode()
	sc.Where = expr.NewCmp(expr.OpGt, expr.NewColumn("id"), expr.NewConst(types.NewInt(3)))
	out := Explain(&Limit{N: 5, Input: sc})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("explain lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Limit(5)") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if lines[1] != "  Scan(video, id ∈ [0, 100), where=id > 3)" {
		t.Errorf("line 1 = %q", lines[1])
	}
	if scanNode().Describe() != "Scan(video, id ∈ [0, 100))" {
		t.Errorf("a scan without Where = %q", scanNode().Describe())
	}
	if (&Limit{Input: scanNode()}).Schema().IndexOf("frame") != 1 {
		t.Error("limit schema should pass through")
	}
}
