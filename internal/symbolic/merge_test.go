package symbolic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"eva/internal/expr"
)

// The merge walks — IntervalSet.Intersect and Complement, and every
// CatSet operation — are held to the definitions they replaced: the
// normalized set of all pairwise intersections, the normalized set of
// the gaps, and a map model of which values a categorical set admits.

// oracleIntersect is the nested-loop definition of IntervalSet.Intersect.
func oracleIntersect(s, o IntervalSet) IntervalSet {
	var out []Interval
	for _, a := range s.Intervals() {
		for _, b := range o.Intervals() {
			out = append(out, a.intersect(b))
		}
	}
	return NewIntervalSet(out...)
}

// oracleComplement is the gaps definition of IntervalSet.Complement.
func oracleComplement(s IntervalSet) IntervalSet {
	var gaps []Interval
	lo, loOpen := math.Inf(-1), true
	for _, iv := range s.Intervals() {
		gaps = append(gaps, Interval{Lo: lo, LoOpen: loOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen})
		lo, loOpen = iv.Hi, !iv.HiOpen
	}
	return NewIntervalSet(append(gaps, Interval{Lo: lo, LoOpen: loOpen, Hi: math.Inf(1), HiOpen: true})...)
}

// randMergeSet draws an interval set whose endpoints come from a small
// grid, so points, endpoints that touch open or closed, ±Inf, and the
// empty and full sets all turn up.
func randMergeSet(r *rand.Rand) IntervalSet {
	grid := []float64{math.Inf(-1), -2, -1, 0, 1, 2, math.Inf(1)}
	switch r.Intn(8) {
	case 0:
		return IntervalSet{}
	case 1:
		return FullIntervalSet()
	}
	var ivs []Interval
	for n := 1 + r.Intn(4); n > 0; n-- {
		lo, hi := grid[r.Intn(len(grid))], grid[r.Intn(len(grid))]
		if lo > hi {
			lo, hi = hi, lo
		}
		if r.Intn(4) == 0 {
			ivs = append(ivs, Point(lo))
			continue
		}
		ivs = append(ivs, Interval{Lo: lo, Hi: hi, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0})
	}
	return NewIntervalSet(ivs...)
}

// catUniverse holds every value a random set may list; catOutside is a
// value no set lists, standing for the rest of the unbounded domain.
var catUniverse = []string{"", "a", "b", "c", "d"}

const catOutside = "z"

// randCatSet draws a categorical set with its model: the map from each
// value of catUniverse and catOutside to whether the set admits it.
func randCatSet(r *rand.Rand) (CatSet, map[string]bool) {
	var vals []string
	for n := r.Intn(5); n > 0; n-- {
		vals = append(vals, catUniverse[r.Intn(len(catUniverse))])
	}
	negated := r.Intn(2) == 0
	set := NewCatSet(vals...)
	if negated {
		set = NewCatSetNot(vals...)
	}
	model := map[string]bool{catOutside: negated}
	for _, v := range catUniverse {
		model[v] = slices.Contains(vals, v) != negated
	}
	return set, model
}

// checkCatModel fails unless set admits exactly the values model does
// and is in normal form: sorted, distinct values from catUniverse.
func checkCatModel(t *testing.T, op string, set CatSet, model map[string]bool) {
	t.Helper()
	for v, want := range model {
		if set.Contains(v) != want {
			t.Fatalf("%s = %s: Contains(%q) = %v, model says %v", op, set, v, !want, want)
		}
	}
	for i, v := range set.Vals {
		if !slices.Contains(catUniverse, v) || i > 0 && set.Vals[i-1] >= v {
			t.Fatalf("%s = %s: values %q not sorted, distinct and listed", op, set, set.Vals)
		}
	}
}

func checkMergeWalks(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < 20; k++ {
		s, o := randMergeSet(r), randMergeSet(r)
		if got, want := s.Intersect(o), oracleIntersect(s, o); !got.Equal(want) {
			t.Fatalf("%s ∩ %s = %s, want %s", s, o, got, want)
		}
		if got, want := s.Complement(), oracleComplement(s); !got.Equal(want) {
			t.Fatalf("¬%s = %s, want %s", s, got, want)
		}

		a, am := randCatSet(r)
		b, bm := randCatSet(r)
		and, or, not := map[string]bool{}, map[string]bool{}, map[string]bool{}
		sub, eq := true, true
		for v := range am {
			and[v], or[v], not[v] = am[v] && bm[v], am[v] || bm[v], !am[v]
			sub = sub && (!am[v] || bm[v])
			eq = eq && am[v] == bm[v]
		}
		checkCatModel(t, a.String(), a, am)
		checkCatModel(t, a.String()+" ∧ "+b.String(), a.Intersect(b), and)
		checkCatModel(t, a.String()+" ∨ "+b.String(), a.Union(b), or)
		checkCatModel(t, "¬"+a.String(), a.Complement(), not)
		if got := a.SubsetOf(b); got != sub {
			t.Fatalf("%s ⊆ %s = %v, model says %v", a, b, got, sub)
		}
		if got := a.Equal(b); got != eq {
			t.Fatalf("%s = %s is %v, model says %v", a, b, got, eq)
		}
	}
}

// FuzzMergeWalks drives the merge walks against their oracles from a
// generator seed; `make fuzz-smoke` runs a short smoke.
func FuzzMergeWalks(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 2022, -7} {
		f.Add(seed)
	}
	f.Fuzz(checkMergeWalks)
}

func TestMergeWalksMatchOracles(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkMergeWalks(t, seed)
	}
}

// TestSharedValsAreNeverWritten: a Complement shares its operand's
// values, and NewCatSet copies its caller's; no later operation on
// either set, or on a conjunct or predicate holding them, changes them.
func TestSharedValsAreNeverWritten(t *testing.T) {
	caller := []string{"d", "b", "d"}
	a := NewCatSet(caller...)
	caller[0] = "z"
	na := a.Complement()
	if &a.Vals[0] != &na.Vals[0] {
		t.Fatal("Complement copied the values it may share")
	}
	others := []CatSet{NewCatSet("a", "b", "c", "d", "e"), NewCatSet("b"), NewCatSetNot("c"), FullCatSet(), NewCatSet()}
	for _, s := range []CatSet{a, na} {
		for _, o := range others {
			s.Intersect(o)
			s.Union(o)
			o.Intersect(s)
			o.Union(s)
			s.SubsetOf(o)
			o.SubsetOf(s)
			s.Complement().Intersect(o.Complement())
		}
	}
	ca := NewConjunct().WithConstraint("label", CatConstraint(a))
	cna := NewConjunct().WithConstraint("label", CatConstraint(na))
	for _, c := range []Conjunct{ca, cna} {
		for _, o := range others {
			co := NewConjunct().WithConstraint("label", CatConstraint(o))
			Inter(FromConjuncts(c), FromConjuncts(co))
			Diff(FromConjuncts(c), FromConjuncts(co))
			Union(FromConjuncts(c), FromConjuncts(co))
		}
	}
	for _, s := range []CatSet{a, na} {
		if !slices.Equal(s.Vals, []string{"b", "d"}) {
			t.Fatalf("shared values changed to %q", s.Vals)
		}
	}
}

// TestTypeErrorNamesTheFirstTerm: when two terms are at fault, the
// error names the first in name order, every time.
func TestTypeErrorNamesTheFirstTerm(t *testing.T) {
	e := or(
		and(cmp(expr.OpEq, col("a"), num(1)), cmp(expr.OpEq, col("b"), num(1))),
		and(cmp(expr.OpEq, col("a"), str("x")), cmp(expr.OpEq, col("b"), str("y"))))
	const want = `symbolic: term "a" used both numerically and categorically`
	for i := 0; i < 50; i++ {
		if _, err := FromExpr(e); err == nil || err.Error() != want {
			t.Fatalf("call %d: FromExpr(%s) = %v, want %s", i, e, err, want)
		}
	}
	c := mustDNF(t, and(cmp(expr.OpEq, col("a"), num(1)), cmp(expr.OpEq, col("b"), num(1)))).Conjuncts()[0]
	for i := 0; i < 50; i++ {
		if _, err := c.Evaluate(map[string]Value{}); err == nil || err.Error() != `symbolic: no sample value for term "a"` {
			t.Fatalf("call %d: Evaluate on no values = %v, want the error naming a", i, err)
		}
	}
}
