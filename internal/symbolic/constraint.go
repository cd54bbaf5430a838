package symbolic

import (
	"fmt"
	"slices"
	"strings"
)

// CatSet is a constraint over a categorical (string-valued) term: either
// "value ∈ Vals" (Negated = false) or "value ∉ Vals" (Negated = true).
// Because the domain is treated as unbounded, a negated set is never
// empty and an allowed set is never full.
//
// Vals is sorted and distinct, and nothing writes it after the set is
// built, so Complement shares it. Every two-set operation is one merge
// walk of the two lists.
//
// The algebra is closed: unions, intersections, and complements of
// CatSets are CatSets, so per-dimension reduction is always exact.
type CatSet struct {
	Negated bool
	Vals    []string
}

// NewCatSet returns "value ∈ vals".
func NewCatSet(vals ...string) CatSet {
	s := slices.Clone(vals)
	slices.Sort(s)
	return CatSet{Vals: slices.Compact(s)}
}

// NewCatSetNot returns "value ∉ vals".
func NewCatSetNot(vals ...string) CatSet {
	s := NewCatSet(vals...)
	s.Negated = true
	return s
}

// FullCatSet matches every value.
func FullCatSet() CatSet { return CatSet{Negated: true} }

// Empty reports whether the constraint matches no value.
func (c CatSet) Empty() bool { return !c.Negated && len(c.Vals) == 0 }

// Full reports whether the constraint matches every value.
func (c CatSet) Full() bool { return c.Negated && len(c.Vals) == 0 }

// Contains reports whether v satisfies the constraint.
func (c CatSet) Contains(v string) bool {
	_, in := slices.BinarySearch(c.Vals, v)
	return in != c.Negated
}

// combine returns {v : op(v satisfies c, v satisfies o)}, op being ∧
// when and is set and ∨ otherwise. A value in neither list satisfies
// each set exactly when it is negated, so the result is negated when op
// holds of the two flags, and lists the values where op disagrees.
func (c CatSet) combine(o CatSet, and bool) CatSet {
	op := func(p, q bool) bool {
		if and {
			return p && q
		}
		return p || q
	}
	out := CatSet{Negated: op(c.Negated, o.Negated)}
	zip(c.Vals, o.Vals, valueOf, func(x, y *string) bool {
		if op((x != nil) != c.Negated, (y != nil) != o.Negated) != out.Negated {
			if x == nil {
				x = y
			}
			out.Vals = append(out.Vals, *x)
		}
		return true
	})
	return out
}

// Intersect returns a ∧ b.
func (c CatSet) Intersect(o CatSet) CatSet { return c.combine(o, true) }

// Union returns a ∨ b.
func (c CatSet) Union(o CatSet) CatSet { return c.combine(o, false) }

// Complement returns ¬c; it shares c's values.
func (c CatSet) Complement() CatSet { return CatSet{Negated: !c.Negated, Vals: c.Vals} }

// SubsetOf reports whether every value satisfying c also satisfies o.
func (c CatSet) SubsetOf(o CatSet) bool {
	if c.Negated && !o.Negated {
		return false // a value in neither list satisfies c and not o
	}
	sub := true
	zip(c.Vals, o.Vals, valueOf, func(x, y *string) bool {
		sub = (x != nil) == c.Negated || (y != nil) != o.Negated
		return sub
	})
	return sub
}

// Equal reports constraint equality.
func (c CatSet) Equal(o CatSet) bool {
	return c.Negated == o.Negated && slices.Equal(c.Vals, o.Vals)
}

// AtomCount counts atomic =/!= formulas needed to express the set.
func (c CatSet) AtomCount() int { return len(c.Vals) }

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
	return op + " {" + strings.Join(c.Vals, ", ") + "}"
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
