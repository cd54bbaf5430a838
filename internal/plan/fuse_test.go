package plan

import (
	"fmt"
	"strings"
	"testing"

	"eva/internal/expr"
	"eva/internal/types"
)

var detOut = types.MustSchema(
	types.Column{Name: "label", Kind: types.KindString},
	types.Column{Name: "bbox", Kind: types.KindString},
	types.Column{Name: "score", Kind: types.KindFloat},
)

func cmp(col string, v int64) expr.Expr {
	return expr.NewCmp(expr.OpGt, expr.NewColumn(col), expr.NewConst(types.NewInt(v)))
}

// TestFuseCarriesWhatIsReadAbove: an apply carries the columns of the
// projection, of group and sort keys and aggregate arguments, and the
// arguments, key columns and carried columns of the applies above it —
// and no column only its own Where reads.
func TestFuseCarriesWhatIsReadAbove(t *testing.T) {
	det := &ReuseApply{Input: scanNode(), Args: []expr.Expr{expr.NewColumn("frame")},
		Eval: "D", TableUDF: true, Out: detOut, KeyCols: []string{"id"}}
	det.Where = []expr.Expr{cmp("label", 0)}
	cls := &ReuseApply{Input: det, Args: []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")},
		Eval: "C", Out: types.MustSchema(types.Column{Name: "kind", Kind: types.KindString}), KeyCols: []string{"bbox", "id"},
		Where: []expr.Expr{cmp("kind", 0)}}
	root := Fuse(&Sort{Keys: []SortKey{{Col: "kind"}}, Input: &GroupBy{
		Input: cls,
		Keys:  []string{"kind"},
		Aggs:  []Agg{{Kind: AggAvg, Arg: expr.NewColumn("score"), Name: "s"}, {Kind: AggCount, Name: "n"}},
	}})
	for _, tc := range []struct {
		a          *ReuseApply
		pass, emit string
	}{
		{det, "[id frame]", "[bbox score]"},
		{cls, "[score]", "[kind]"},
	} {
		if p, e := fmt.Sprint(tc.a.Pass), fmt.Sprint(tc.a.Emit); p != tc.pass || e != tc.emit {
			t.Errorf("%s: Pass %s Emit %s, want %s %s\n%s", tc.a.Eval, p, e, tc.pass, tc.emit, Explain(root))
		}
	}
	if !strings.Contains(Explain(root), "where=label > 0, cols=[id frame bbox score]") {
		t.Errorf("plan:\n%s", Explain(root))
	}
}

// TestFuseKeepsOutNamesStable: an input column an Out column's name
// clashes with stays carried below, so the Out column keeps the "_r"
// name the operators above were planned against.
func TestFuseKeepsOutNamesStable(t *testing.T) {
	det := &ReuseApply{Input: scanNode(), Args: []expr.Expr{expr.NewColumn("frame")},
		Eval: "D", TableUDF: true, Out: detOut, KeyCols: []string{"id"}}
	relabel := &ReuseApply{Input: det, Args: []expr.Expr{expr.NewColumn("frame")},
		Eval: "R", Out: types.MustSchema(types.Column{Name: "label", Kind: types.KindString}), KeyCols: []string{"id"}}
	if got := fmt.Sprint(relabel.Schema().Names()); got != "[id frame label bbox score label_r]" {
		t.Fatalf("planned schema %s", got)
	}
	Fuse(&Project{Input: relabel, Items: []ProjItem{{Name: "l", E: expr.NewColumn("label_r")}}})
	if got := fmt.Sprint(relabel.Schema().Names()); got != "[label_r]" {
		t.Errorf("fused schema %s, want [label_r]", got)
	}
	if fmt.Sprint(det.Emit) != "[label]" {
		t.Errorf("the detector drops the label the relabel output is named against: Emit %v", det.Emit)
	}
}
