package symbolic

import (
	"math/rand"
	"strings"
	"testing"

	"eva/internal/expr"
	"eva/internal/types"
)

// Helpers building expression predicates concisely.
func col(name string) expr.Expr                   { return expr.NewColumn(name) }
func num(v float64) expr.Expr                     { return expr.NewConst(types.NewFloat(v)) }
func str(v string) expr.Expr                      { return expr.NewConst(types.NewString(v)) }
func cmp(op expr.CmpOp, l, r expr.Expr) expr.Expr { return expr.NewCmp(op, l, r) }
func and(l, r expr.Expr) expr.Expr                { return expr.NewAnd(l, r) }
func or(l, r expr.Expr) expr.Expr                 { return expr.NewOr(l, r) }

func mustDNF(t *testing.T, e expr.Expr) DNF {
	t.Helper()
	d, err := FromExpr(e)
	if err != nil {
		t.Fatalf("FromExpr(%s): %v", e, err)
	}
	return d
}

func TestFromExprSimple(t *testing.T) {
	d := mustDNF(t, and(cmp(expr.OpGt, col("id"), num(5)), cmp(expr.OpEq, col("label"), str("car"))))
	if len(d.Conjuncts()) != 1 {
		t.Fatalf("conjuncts = %d", len(d.Conjuncts()))
	}
	c := d.Conjuncts()[0]
	if got, want := c.String(), "id (5, +Inf) ∧ label ∈ {car}"; got != want {
		t.Errorf("conjunct = %s, want %s", got, want)
	}
	ok, err := d.Evaluate(map[string]Value{"id": Num(6), "label": Str("car")})
	if err != nil || !ok {
		t.Errorf("point should satisfy: %v %v", ok, err)
	}
	ok, _ = d.Evaluate(map[string]Value{"id": Num(4), "label": Str("car")})
	if ok {
		t.Error("id=4 should fail")
	}
}

func TestFromExprNilIsTrue(t *testing.T) {
	d, err := FromExpr(nil)
	if err != nil || !d.IsTrue() {
		t.Errorf("nil predicate: %v, %v", d, err)
	}
}

func TestFromExprPaperExample(t *testing.T) {
	// "timestamp > 6 OR timestamp > 9" reduces to "timestamp > 6" (§2).
	d := mustDNF(t, or(cmp(expr.OpGt, col("timestamp"), num(6)), cmp(expr.OpGt, col("timestamp"), num(9))))
	r := Reduce(d)
	if len(r.Conjuncts()) != 1 {
		t.Fatalf("reduced conjuncts = %d (%s)", len(r.Conjuncts()), r)
	}
	if got := r.AtomCount(); got != 1 {
		t.Errorf("AtomCount = %d, want 1", got)
	}
	if ok, _ := r.Evaluate(map[string]Value{"timestamp": Num(7)}); !ok {
		t.Error("7 should satisfy")
	}
	if ok, _ := r.Evaluate(map[string]Value{"timestamp": Num(6)}); ok {
		t.Error("6 should not satisfy (strict)")
	}
}

func TestFromExprMonadicReduction(t *testing.T) {
	// UNION(5 < x ∧ x < 15, 10 < x ∧ x < 20) → 5 < x ∧ x < 20 (§4.1).
	p1 := mustDNF(t, and(cmp(expr.OpLt, num(5), col("x")), cmp(expr.OpLt, col("x"), num(15))))
	p2 := mustDNF(t, and(cmp(expr.OpLt, num(10), col("x")), cmp(expr.OpLt, col("x"), num(20))))
	u := Union(p1, p2)
	if got := u.AtomCount(); got != 2 {
		t.Errorf("union atoms = %d (%s), want 2", got, u)
	}
	if ok, _ := u.Evaluate(map[string]Value{"x": Num(5.5)}); !ok {
		t.Error("5.5 in union")
	}
	if ok, _ := u.Evaluate(map[string]Value{"x": Num(20)}); ok {
		t.Error("20 not in union")
	}
}

func TestPolyadicUnionChallenge(t *testing.T) {
	// UNION(5<x ∧ 10<y, 10<x ∧ 15<y) from §4.1: the second conjunct is
	// a subset of the first in both dims, so the union is the first.
	p1 := mustDNF(t, and(cmp(expr.OpLt, num(5), col("x")), cmp(expr.OpLt, num(10), col("y"))))
	p2 := mustDNF(t, and(cmp(expr.OpLt, num(10), col("x")), cmp(expr.OpLt, num(15), col("y"))))
	u := Union(p1, p2)
	if len(u.Conjuncts()) != 1 {
		t.Fatalf("union should collapse to 1 conjunct: %s", u)
	}
	if got := u.AtomCount(); got != 2 {
		t.Errorf("atoms = %d, want 2 (5<x ∧ 10<y)", got)
	}
}

func TestReduceCaseII_ConcatenateAlongX(t *testing.T) {
	// Fig. 2(ii): same y-range, adjacent x-ranges concatenate.
	c1 := and(and(cmp(expr.OpGe, col("x"), num(0)), cmp(expr.OpLt, col("x"), num(5))),
		and(cmp(expr.OpGe, col("y"), num(0)), cmp(expr.OpLe, col("y"), num(1))))
	c2 := and(and(cmp(expr.OpGe, col("x"), num(5)), cmp(expr.OpLe, col("x"), num(9))),
		and(cmp(expr.OpGe, col("y"), num(0)), cmp(expr.OpLe, col("y"), num(1))))
	u := Union(mustDNF(t, c1), mustDNF(t, c2))
	if len(u.Conjuncts()) != 1 {
		t.Fatalf("should merge into one rectangle: %s", u)
	}
	if got := u.AtomCount(); got != 4 {
		t.Errorf("atoms = %d, want 4", got)
	}
}

func TestReduceCaseIII_CarveOverlap(t *testing.T) {
	// Fig. 2(iii): c2 ⊆ c1 in y only; overlap removed along x, then the
	// two regions are disjoint. Semantics must be preserved.
	c1 := mustDNF(t, and(and(cmp(expr.OpGe, col("x"), num(0)), cmp(expr.OpLe, col("x"), num(10))),
		and(cmp(expr.OpGe, col("y"), num(0)), cmp(expr.OpLe, col("y"), num(10)))))
	c2 := mustDNF(t, and(and(cmp(expr.OpGe, col("x"), num(5)), cmp(expr.OpLe, col("x"), num(15))),
		and(cmp(expr.OpGe, col("y"), num(2)), cmp(expr.OpLe, col("y"), num(8)))))
	u := Union(c1, c2)
	// Check point semantics across the carved boundary.
	pts := []struct {
		x, y float64
		want bool
	}{
		{1, 1, true}, {7, 5, true}, {12, 5, true}, {12, 9, false}, {16, 5, false}, {11, 1, false},
	}
	for _, p := range pts {
		got, err := u.Evaluate(map[string]Value{"x": Num(p.x), "y": Num(p.y)})
		if err != nil {
			t.Fatal(err)
		}
		if got != p.want {
			t.Errorf("(%g,%g) = %v, want %v in %s", p.x, p.y, got, p.want, u)
		}
	}
	// The carved form should stay at two disjoint conjuncts.
	if len(u.Conjuncts()) != 2 {
		t.Errorf("conjuncts = %d, want 2: %s", len(u.Conjuncts()), u)
	}
}

func TestInterDiffUnionSemantics(t *testing.T) {
	p1 := mustDNF(t, and(cmp(expr.OpLt, col("id"), num(10000)), cmp(expr.OpEq, col("label"), str("car"))))
	p2 := mustDNF(t, and(cmp(expr.OpGt, col("id"), num(7500)), cmp(expr.OpEq, col("label"), str("car"))))
	inter, diff, union := Inter(p1, p2), Diff(p1, p2), Union(p1, p2)
	pts := []map[string]Value{
		{"id": Num(5000), "label": Str("car")},
		{"id": Num(8000), "label": Str("car")},
		{"id": Num(12000), "label": Str("car")},
		{"id": Num(8000), "label": Str("bus")},
	}
	for _, pt := range pts {
		a, _ := p1.Evaluate(pt)
		b, _ := p2.Evaluate(pt)
		if got, _ := inter.Evaluate(pt); got != (a && b) {
			t.Errorf("inter at %v = %v, want %v", pt, got, a && b)
		}
		if got, _ := diff.Evaluate(pt); got != (!a && b) {
			t.Errorf("diff at %v = %v, want %v", pt, got, !a && b)
		}
		if got, _ := union.Evaluate(pt); got != (a || b) {
			t.Errorf("union at %v = %v, want %v", pt, got, a || b)
		}
	}
}

func TestNotSemantics(t *testing.T) {
	d := mustDNF(t, or(
		and(cmp(expr.OpGt, col("x"), num(5)), cmp(expr.OpEq, col("c"), str("a"))),
		cmp(expr.OpLt, col("x"), num(0)),
	))
	n := d.Not()
	pts := []map[string]Value{
		{"x": Num(6), "c": Str("a")},
		{"x": Num(6), "c": Str("b")},
		{"x": Num(-1), "c": Str("b")},
		{"x": Num(3), "c": Str("a")},
	}
	for _, pt := range pts {
		a, _ := d.Evaluate(pt)
		b, err := n.Evaluate(pt)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("¬ failed at %v: both %v", pt, a)
		}
	}
	if !True().Not().IsFalse() {
		t.Error("¬TRUE != FALSE")
	}
	if !False().Not().IsTrue() {
		t.Error("¬FALSE != TRUE")
	}
}

func TestFromExprBooleanConstsAndOpaque(t *testing.T) {
	d := mustDNF(t, expr.NewConst(types.NewBool(true)))
	if !d.IsTrue() {
		t.Error("TRUE const")
	}
	d = mustDNF(t, expr.NewNot(expr.NewConst(types.NewBool(true))))
	if !d.IsFalse() {
		t.Error("NOT TRUE")
	}
	// Opaque atoms: IS NULL and bare calls still participate logically.
	isn := expr.NewIsNull(col("labels"))
	d = mustDNF(t, and(isn, expr.NewNot(isn)))
	r := Reduce(d)
	if !r.IsFalse() {
		t.Errorf("p ∧ ¬p should reduce to FALSE: %s", r)
	}
	d = mustDNF(t, or(isn, expr.NewNot(isn)))
	if !Reduce(d).IsTrue() {
		t.Error("p ∨ ¬p should be TRUE")
	}
}

func TestFromExprTypeConflict(t *testing.T) {
	// Conjoining mismatched types is unsatisfiable (the conjunct dies);
	// disjoining them survives into separate conjuncts and is flagged.
	e := and(cmp(expr.OpGt, col("v"), num(1)), cmp(expr.OpEq, col("v"), str("car")))
	d, err := FromExpr(e)
	if err != nil || !d.IsFalse() {
		t.Errorf("AND conflict: %v, %v; want FALSE", d, err)
	}
	e = or(cmp(expr.OpGt, col("v"), num(1)), cmp(expr.OpEq, col("v"), str("car")))
	if _, err := FromExpr(e); err == nil {
		t.Error("OR numeric/categorical conflict should error")
	}
}

func TestFromExprFlippedConstantSide(t *testing.T) {
	// 10 < x is x > 10.
	d := mustDNF(t, cmp(expr.OpLt, num(10), col("x")))
	if ok, _ := d.Evaluate(map[string]Value{"x": Num(11)}); !ok {
		t.Error("11 should satisfy 10 < x")
	}
	if ok, _ := d.Evaluate(map[string]Value{"x": Num(9)}); ok {
		t.Error("9 should not satisfy 10 < x")
	}
}

func TestFromExprNeAndStrings(t *testing.T) {
	d := mustDNF(t, cmp(expr.OpNe, col("label"), str("car")))
	if ok, _ := d.Evaluate(map[string]Value{"label": Str("bus")}); !ok {
		t.Error("bus != car")
	}
	if ok, _ := d.Evaluate(map[string]Value{"label": Str("car")}); ok {
		t.Error("car != car should fail")
	}
	d = mustDNF(t, cmp(expr.OpNe, col("x"), num(5)))
	if ok, _ := d.Evaluate(map[string]Value{"x": Num(5)}); ok {
		t.Error("5 != 5")
	}
	if ok, _ := d.Evaluate(map[string]Value{"x": Num(5.1)}); !ok {
		t.Error("5.1 != 5")
	}
}

// randPredicate builds a random predicate over numeric x,y and
// categorical c with bounded depth, for the semantic fuzz test.
func randPredicate(r *rand.Rand, depth int) expr.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
			return cmp(ops[r.Intn(len(ops))], col("x"), num(float64(r.Intn(10))))
		case 1:
			ops := []expr.CmpOp{expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
			return cmp(ops[r.Intn(len(ops))], col("y"), num(float64(r.Intn(10))))
		default:
			vals := []string{"a", "b", "c"}
			op := expr.OpEq
			if r.Intn(2) == 0 {
				op = expr.OpNe
			}
			return cmp(op, col("c"), str(vals[r.Intn(len(vals))]))
		}
	}
	switch r.Intn(3) {
	case 0:
		return and(randPredicate(r, depth-1), randPredicate(r, depth-1))
	case 1:
		return or(randPredicate(r, depth-1), randPredicate(r, depth-1))
	default:
		return expr.NewNot(randPredicate(r, depth-1))
	}
}

// TestSymbolicMatchesDirectEvaluation is the core soundness property:
// for random predicates p1, p2 and random sample points, the DNF
// conversion, reduction, and the derived predicates agree with direct
// boolean evaluation of the expressions.
func TestSymbolicMatchesDirectEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	evalExpr := func(e expr.Expr, x, y float64, c string) bool {
		res := expr.MapResolver{Cols: map[string]types.Datum{
			"x": types.NewFloat(x), "y": types.NewFloat(y), "c": types.NewString(c),
		}}
		v, err := expr.EvalBool(e, res)
		if err != nil {
			t.Fatalf("eval %s: %v", e, err)
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		e1 := randPredicate(r, 3)
		e2 := randPredicate(r, 3)
		d1, err := FromExpr(e1)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := FromExpr(e2)
		if err != nil {
			t.Fatal(err)
		}
		rd1 := Reduce(d1)
		inter, diff, union := Inter(d1, d2), Diff(d1, d2), Union(d1, d2)
		for pt := 0; pt < 20; pt++ {
			x := float64(r.Intn(12)) - 0.5*float64(r.Intn(2))
			y := float64(r.Intn(12)) - 0.5*float64(r.Intn(2))
			c := []string{"a", "b", "c", "d"}[r.Intn(4)]
			point := map[string]Value{"x": Num(x), "y": Num(y), "c": Str(c)}
			w1 := evalExpr(e1, x, y, c)
			w2 := evalExpr(e2, x, y, c)
			if got, err := d1.Evaluate(point); err != nil || got != w1 {
				t.Fatalf("trial %d: DNF(%s) at (%g,%g,%s) = %v,%v want %v", trial, e1, x, y, c, got, err, w1)
			}
			if got, _ := rd1.Evaluate(point); got != w1 {
				t.Fatalf("trial %d: Reduce changed semantics of %s at (%g,%g,%s)\nDNF: %s\nreduced: %s", trial, e1, x, y, c, d1, rd1)
			}
			if got, _ := inter.Evaluate(point); got != (w1 && w2) {
				t.Fatalf("trial %d: Inter wrong at (%g,%g,%s)", trial, x, y, c)
			}
			if got, _ := diff.Evaluate(point); got != (!w1 && w2) {
				t.Fatalf("trial %d: Diff wrong at (%g,%g,%s)\ne1=%s\ne2=%s\ndiff=%s", trial, x, y, c, e1, e2, diff)
			}
			if got, _ := union.Evaluate(point); got != (w1 || w2) {
				t.Fatalf("trial %d: Union wrong at (%g,%g,%s)", trial, x, y, c)
			}
		}
		// Reduction should never increase the atom count.
		if rd1.AtomCount() > d1.AtomCount() {
			t.Fatalf("trial %d: reduction grew atoms %d -> %d\n%s\n%s", trial, d1.AtomCount(), rd1.AtomCount(), d1, rd1)
		}
	}
}

func TestDNFStringRendering(t *testing.T) {
	if False().String() != "FALSE" {
		t.Error("FALSE render")
	}
	if True().String() != "(TRUE)" {
		t.Errorf("TRUE render = %q", True().String())
	}
	d := mustDNF(t, and(cmp(expr.OpGt, col("id"), num(5)), cmp(expr.OpEq, col("label"), str("car"))))
	s := d.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "label") {
		t.Errorf("render = %q", s)
	}
}

func TestAggregatedPredicateLifecycle(t *testing.T) {
	// Mirrors the UDFManager flow: p_u starts FALSE, unions in each
	// query predicate, and Inter/Diff drive reuse decisions.
	pu := False()
	q1 := mustDNF(t, cmp(expr.OpLt, col("id"), num(10000)))
	if !Inter(pu, q1).IsFalse() {
		t.Error("first query should have no reuse")
	}
	if got := Diff(pu, q1); got.AtomCount() != 1 {
		t.Errorf("first diff should be whole predicate: %s", got)
	}
	pu = Union(pu, q1)
	q2 := mustDNF(t, and(cmp(expr.OpGt, col("id"), num(7500)), cmp(expr.OpLt, col("id"), num(12000))))
	inter := Inter(pu, q2)
	if inter.IsFalse() {
		t.Error("overlap expected")
	}
	diff := Diff(pu, q2)
	// Remaining work: (10000, 12000).
	if ok, _ := diff.Evaluate(map[string]Value{"id": Num(11000)}); !ok {
		t.Errorf("11000 should be in diff: %s", diff)
	}
	if ok, _ := diff.Evaluate(map[string]Value{"id": Num(9000)}); ok {
		t.Errorf("9000 should not be in diff: %s", diff)
	}
	pu = Union(pu, q2)
	if got := pu.AtomCount(); got != 1 {
		t.Errorf("p_u should reduce to id < 12000: %s (atoms=%d)", pu, got)
	}
}
