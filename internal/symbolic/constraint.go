package symbolic

import (
	"fmt"
	"sort"
	"strings"
)

// CatSet is a constraint over a categorical (string-valued) term: either
// "value ∈ Vals" (Negated = false) or "value ∉ Vals" (Negated = true).
// Because the domain is treated as unbounded, a negated set is never
// empty and an allowed set is never full.
//
// The algebra is closed: unions, intersections, and complements of
// CatSets are CatSets, so per-dimension reduction is always exact.
type CatSet struct {
	Negated bool
	Vals    map[string]struct{}
}

// NewCatSet returns "value ∈ vals".
func NewCatSet(vals ...string) CatSet {
	m := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		m[v] = struct{}{}
	}
	return CatSet{Vals: m}
}

// NewCatSetNot returns "value ∉ vals".
func NewCatSetNot(vals ...string) CatSet {
	s := NewCatSet(vals...)
	s.Negated = true
	return s
}

// FullCatSet matches every value.
func FullCatSet() CatSet { return CatSet{Negated: true, Vals: map[string]struct{}{}} }

// Empty reports whether the constraint matches no value.
func (c CatSet) Empty() bool { return !c.Negated && len(c.Vals) == 0 }

// Full reports whether the constraint matches every value.
func (c CatSet) Full() bool { return c.Negated && len(c.Vals) == 0 }

// Contains reports whether v satisfies the constraint.
func (c CatSet) Contains(v string) bool {
	_, in := c.Vals[v]
	return in != c.Negated
}

func setOps(a, b map[string]struct{}) (inter, aMinusB, bMinusA, union map[string]struct{}) {
	inter = map[string]struct{}{}
	aMinusB = map[string]struct{}{}
	bMinusA = map[string]struct{}{}
	union = map[string]struct{}{}
	for v := range a {
		union[v] = struct{}{}
		if _, ok := b[v]; ok {
			inter[v] = struct{}{}
		} else {
			aMinusB[v] = struct{}{}
		}
	}
	for v := range b {
		union[v] = struct{}{}
		if _, ok := a[v]; !ok {
			bMinusA[v] = struct{}{}
		}
	}
	return
}

// Intersect returns a ∧ b.
func (c CatSet) Intersect(o CatSet) CatSet {
	inter, aMinusB, bMinusA, union := setOps(c.Vals, o.Vals)
	switch {
	case !c.Negated && !o.Negated:
		return CatSet{Vals: inter}
	case !c.Negated && o.Negated:
		return CatSet{Vals: aMinusB}
	case c.Negated && !o.Negated:
		return CatSet{Vals: bMinusA}
	default:
		return CatSet{Negated: true, Vals: union}
	}
}

// Union returns a ∨ b.
func (c CatSet) Union(o CatSet) CatSet {
	inter, aMinusB, bMinusA, union := setOps(c.Vals, o.Vals)
	switch {
	case !c.Negated && !o.Negated:
		return CatSet{Vals: union}
	case !c.Negated && o.Negated:
		// v∈A ∨ v∉B  ⇔  v ∉ (B \ A)
		return CatSet{Negated: true, Vals: bMinusA}
	case c.Negated && !o.Negated:
		return CatSet{Negated: true, Vals: aMinusB}
	default:
		return CatSet{Negated: true, Vals: inter}
	}
}

// Complement returns ¬c.
func (c CatSet) Complement() CatSet {
	vals := make(map[string]struct{}, len(c.Vals))
	for v := range c.Vals {
		vals[v] = struct{}{}
	}
	return CatSet{Negated: !c.Negated, Vals: vals}
}

// SubsetOf reports whether every value satisfying c also satisfies o.
func (c CatSet) SubsetOf(o CatSet) bool {
	return c.Intersect(o.Complement()).Empty()
}

// Equal reports constraint equality.
func (c CatSet) Equal(o CatSet) bool {
	if c.Negated != o.Negated || len(c.Vals) != len(o.Vals) {
		return false
	}
	for v := range c.Vals {
		if _, ok := o.Vals[v]; !ok {
			return false
		}
	}
	return true
}

// AtomCount counts atomic =/!= formulas needed to express the set.
func (c CatSet) AtomCount() int {
	if c.Full() {
		return 0
	}
	return len(c.Vals)
}

func (c CatSet) sorted() []string {
	out := make([]string, 0, len(c.Vals))
	for v := range c.Vals {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// String renders the constraint.
func (c CatSet) String() string {
	if c.Full() {
		return "any"
	}
	if c.Empty() {
		return "∅"
	}
	op := "∈"
	if c.Negated {
		op = "∉"
	}
	return op + " {" + strings.Join(c.sorted(), ", ") + "}"
}

// Constraint is the per-term building block of a conjunctive predicate:
// either a numeric interval set or a categorical set.
type Constraint struct {
	Numeric bool
	Ivs     IntervalSet
	Cat     CatSet
}

// NumConstraint wraps an interval set.
func NumConstraint(ivs IntervalSet) Constraint { return Constraint{Numeric: true, Ivs: ivs} }

// CatConstraint wraps a categorical set.
func CatConstraint(c CatSet) Constraint { return Constraint{Cat: c} }

// FullConstraint returns the unconstrained constraint matching the kind
// of the receiver's domain.
func fullLike(c Constraint) Constraint {
	if c.Numeric {
		return NumConstraint(FullIntervalSet())
	}
	return CatConstraint(FullCatSet())
}

// Empty reports whether no value satisfies the constraint.
func (c Constraint) Empty() bool {
	if c.Numeric {
		return c.Ivs.Empty()
	}
	return c.Cat.Empty()
}

// Full reports whether every value satisfies the constraint.
func (c Constraint) Full() bool {
	if c.Numeric {
		return c.Ivs.Full()
	}
	return c.Cat.Full()
}

// typeMismatch reports a numeric/categorical clash on the same term;
// the conjunctive combining them is unsatisfiable by typing.
func (c Constraint) typeMismatch(o Constraint) bool { return c.Numeric != o.Numeric }

// Intersect returns c ∧ o; a type mismatch yields an empty constraint.
func (c Constraint) Intersect(o Constraint) Constraint {
	if c.typeMismatch(o) {
		return Constraint{Numeric: c.Numeric} // empty of c's kind
	}
	if c.Numeric {
		return NumConstraint(c.Ivs.Intersect(o.Ivs))
	}
	return CatConstraint(c.Cat.Intersect(o.Cat))
}

// Union returns c ∨ o. A type mismatch — the same term constrained
// both numerically and categorically — is reported as an error;
// FromExpr rejects such predicates, so seeing one here means the
// caller combined constraints from incompatible sources.
func (c Constraint) Union(o Constraint) (Constraint, error) {
	if c.typeMismatch(o) {
		return Constraint{}, fmt.Errorf("symbolic: union of mismatched constraint kinds")
	}
	if c.Numeric {
		return NumConstraint(c.Ivs.Union(o.Ivs)), nil
	}
	return CatConstraint(c.Cat.Union(o.Cat)), nil
}

// Complement returns ¬c.
func (c Constraint) Complement() Constraint {
	if c.Numeric {
		return NumConstraint(c.Ivs.Complement())
	}
	return CatConstraint(c.Cat.Complement())
}

// SubsetOf reports whether c implies o.
func (c Constraint) SubsetOf(o Constraint) bool {
	if c.typeMismatch(o) {
		return c.Empty()
	}
	if c.Numeric {
		return c.Ivs.SubsetOf(o.Ivs)
	}
	return c.Cat.SubsetOf(o.Cat)
}

// Equal reports constraint equality.
func (c Constraint) Equal(o Constraint) bool {
	if c.typeMismatch(o) {
		return false
	}
	if c.Numeric {
		return c.Ivs.Equal(o.Ivs)
	}
	return c.Cat.Equal(o.Cat)
}

// AtomCount counts the atomic formulas needed to express the constraint.
func (c Constraint) AtomCount() int {
	if c.Numeric {
		return c.Ivs.AtomCount()
	}
	return c.Cat.AtomCount()
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Numeric {
		return c.Ivs.String()
	}
	return c.Cat.String()
}

// ContainsDatumLike reports whether a sample value satisfies the
// constraint; numeric constraints take the float form, categorical the
// string form. Used by the property-test evaluator.
func (c Constraint) containsValue(v Value) (bool, error) {
	if c.Numeric {
		if !v.Numeric {
			return false, fmt.Errorf("symbolic: numeric constraint evaluated on string value")
		}
		return c.Ivs.Contains(v.F), nil
	}
	if v.Numeric {
		return false, fmt.Errorf("symbolic: categorical constraint evaluated on numeric value")
	}
	return c.Cat.Contains(v.S), nil
}

// Value is a sample point for one term, used by Evaluate.
type Value struct {
	Numeric bool
	F       float64
	S       string
}

// Num returns a numeric sample value.
// lint:testonly builds the points of the truth-table oracle (oracle_test.go)
func Num(f float64) Value { return Value{Numeric: true, F: f} }

// Str returns a categorical sample value.
// lint:testonly builds the points of the truth-table oracle (oracle_test.go)
func Str(s string) Value { return Value{S: s} }
