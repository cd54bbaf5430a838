package symbolic

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"eva/internal/expr"
	"eva/internal/types"
)

// Term is one constrained term of a conjunct.
type Term struct {
	Name string
	Con  Constraint
}

// Conjunct is a conjunction of per-term constraints: a product region.
// Its terms are sorted by name, hold no full constraint, and are never
// written once the conjunct is built, so conjuncts share them freely. A
// term absent from the list is unconstrained. The empty conjunct is the
// always-true predicate.
type Conjunct struct {
	terms []Term
}

// NewConjunct returns the always-true conjunct.
func NewConjunct() Conjunct { return Conjunct{} }

// zip walks two name-sorted lists in step and calls f once per name
// either holds, passing nil for the side that lacks it; f returning
// false stops the walk. It is the one merge walk of the algebra: over
// two conjuncts' terms (nil is an unconstrained term) and over two
// categorical sets' values (nil is a value the list leaves out).
func zip[E any](a, b []E, key func(*E) string, f func(x, y *E) bool) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var x, y *E
		switch {
		case j == len(b) || i < len(a) && key(&a[i]) < key(&b[j]):
			x = &a[i]
			i++
		case i == len(a) || key(&b[j]) < key(&a[i]):
			y = &b[j]
			j++
		default:
			x, y = &a[i], &b[j]
			i++
			j++
		}
		if !f(x, y) {
			return
		}
	}
}

func nameOf(t *Term) string    { return t.Name }
func valueOf(s *string) string { return *s }

// WithConstraint returns a copy of the conjunct with term ∧= c.
func (c Conjunct) WithConstraint(term string, con Constraint) Conjunct {
	if con.Full() {
		return c
	}
	return c.Intersect(Conjunct{terms: []Term{{term, con}}})
}

// with returns a copy of c whose constraint on name is con, or which
// leaves name unconstrained when con is full.
func (c Conjunct) with(name string, con Constraint) Conjunct {
	i, found := slices.BinarySearchFunc(c.terms, name, func(t Term, n string) int {
		return strings.Compare(t.Name, n)
	})
	out := make([]Term, 0, len(c.terms)+1)
	out = append(out, c.terms[:i]...)
	if !con.Full() {
		out = append(out, Term{name, con})
	}
	if found {
		i++
	}
	return Conjunct{terms: append(out, c.terms[i:]...)}
}

// Constraint returns the constraint on term; (zero, false) if absent.
func (c Conjunct) Constraint(term string) (Constraint, bool) {
	for _, t := range c.terms {
		if t.Name == term {
			return t.Con, true
		}
	}
	return Constraint{}, false
}

// Empty reports whether the conjunct is unsatisfiable.
func (c Conjunct) Empty() bool {
	for _, t := range c.terms {
		if t.Con.Empty() {
			return true
		}
	}
	return false
}

// Intersect returns the conjunction of two conjuncts; with TRUE it
// returns the other operand, sharing its terms.
func (c Conjunct) Intersect(o Conjunct) Conjunct {
	switch {
	case len(c.terms) == 0:
		return o
	case len(o.terms) == 0:
		return c
	}
	out := make([]Term, 0, len(c.terms)+len(o.terms))
	zip(c.terms, o.terms, nameOf, func(x, y *Term) bool {
		switch {
		case y == nil:
			out = append(out, *x)
		case x == nil:
			out = append(out, *y)
		default:
			out = append(out, Term{x.Name, x.Con.Intersect(y.Con)})
		}
		return true
	})
	return Conjunct{terms: out}
}

// subset reports x ⊆ y for the two sides of a zip over terms, nil
// being the unconstrained term.
func subset(x, y *Term) bool {
	switch {
	case y == nil:
		return true
	case x == nil:
		return y.Con.Full()
	}
	return x.Con.SubsetOf(y.Con)
}

// SubsetOf reports whether every point satisfying c satisfies o.
func (c Conjunct) SubsetOf(o Conjunct) bool {
	if c.Empty() {
		return true
	}
	sub := true
	zip(c.terms, o.terms, nameOf, func(x, y *Term) bool {
		sub = subset(x, y)
		return sub
	})
	return sub
}

// Equal reports whether the conjuncts constrain identically.
// lint:testonly the algebra's property tests compare conjuncts
func (c Conjunct) Equal(o Conjunct) bool {
	return c.SubsetOf(o) && o.SubsetOf(c)
}

// AtomCount counts the atomic formulas in the conjunct.
func (c Conjunct) AtomCount() int {
	n := 0
	for _, t := range c.terms {
		n += t.Con.AtomCount()
	}
	return n
}

// Evaluate reports whether the sample point satisfies the conjunct.
func (c Conjunct) Evaluate(point map[string]Value) (bool, error) {
	for _, t := range c.terms {
		v, ok := point[t.Name]
		if !ok {
			return false, fmt.Errorf("symbolic: no sample value for term %q", t.Name)
		}
		in, err := t.Con.containsValue(v)
		if err != nil {
			return false, fmt.Errorf("term %q: %w", t.Name, err)
		}
		if !in {
			return false, nil
		}
	}
	return true, nil
}

// String renders the conjunct.
func (c Conjunct) String() string {
	if len(c.terms) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c.terms))
	for i, t := range c.terms {
		parts[i] = t.Name + " " + t.Con.String()
	}
	return strings.Join(parts, " ∧ ")
}

// DNF is a predicate in disjunctive normal form: a union of conjuncts.
// The zero value (no conjuncts) is FALSE; a DNF containing the empty
// conjunct is TRUE.
type DNF struct {
	conjs []Conjunct
}

// False is the unsatisfiable predicate.
func False() DNF { return DNF{} }

// True is the tautological predicate.
func True() DNF { return DNF{conjs: []Conjunct{NewConjunct()}} }

// FromConjuncts builds a DNF from conjuncts, dropping unsatisfiable ones.
func FromConjuncts(conjs ...Conjunct) DNF {
	out := DNF{}
	for _, c := range conjs {
		if !c.Empty() {
			out.conjs = append(out.conjs, c)
		}
	}
	return out
}

// Conjuncts returns the component conjuncts (read-only).
// lint:testonly the algebra's tests inspect a predicate's shape
func (d DNF) Conjuncts() []Conjunct { return d.conjs }

// IsFalse reports whether the predicate is unsatisfiable.
func (d DNF) IsFalse() bool { return len(d.conjs) == 0 }

// IsTrue reports whether the predicate is a tautology (some conjunct
// has no constraints).
// lint:testonly the algebra's property tests check tautologies
func (d DNF) IsTrue() bool {
	for _, c := range d.conjs {
		if len(c.terms) == 0 {
			return true
		}
	}
	return false
}

// Terms returns the union of term names across conjuncts, sorted.
// lint:testonly the truth-table oracle enumerates the terms
func (d DNF) Terms() []string {
	var out []string
	for _, c := range d.conjs {
		for _, t := range c.terms {
			out = append(out, t.Name)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Or returns d ∨ o (unreduced).
func (d DNF) Or(o DNF) DNF {
	out := DNF{conjs: make([]Conjunct, 0, len(d.conjs)+len(o.conjs))}
	out.conjs = append(out.conjs, d.conjs...)
	out.conjs = append(out.conjs, o.conjs...)
	return out
}

// And returns d ∧ o by pairwise conjunct intersection.
func (d DNF) And(o DNF) DNF {
	var out DNF
	for _, a := range d.conjs {
		for _, b := range o.conjs {
			if c := a.Intersect(b); !c.Empty() {
				out.conjs = append(out.conjs, c)
			}
		}
	}
	return out
}

// Not returns ¬d by complementing each conjunct (a union of per-term
// complements) and conjoining the results.
func (d DNF) Not() DNF {
	out := True()
	for _, c := range d.conjs {
		var comp DNF
		if len(c.terms) == 0 {
			return False() // ¬TRUE
		}
		for _, t := range c.terms {
			neg := t.Con.Complement()
			if neg.Empty() {
				continue
			}
			comp.conjs = append(comp.conjs, NewConjunct().WithConstraint(t.Name, neg))
		}
		out = out.And(comp)
	}
	return out
}

// AtomCount counts the atomic formulas across all conjuncts; Fig. 7's
// y-axis plots this quantity for the derived predicates.
func (d DNF) AtomCount() int {
	n := 0
	for _, c := range d.conjs {
		n += c.AtomCount()
	}
	return n
}

// Evaluate reports whether the sample point satisfies the predicate.
// lint:testonly the truth-table oracle (oracle_test.go) and the property tests
func (d DNF) Evaluate(point map[string]Value) (bool, error) {
	for _, c := range d.conjs {
		ok, err := c.Evaluate(point)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// String renders the DNF.
func (d DNF) String() string {
	if d.IsFalse() {
		return "FALSE"
	}
	parts := make([]string, len(d.conjs))
	for i, c := range d.conjs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// opaqueTruthy is the categorical value representing "this opaque
// boolean atom holds"; opaque atoms arise from predicates the interval
// algebra cannot type (e.g. string ordering, bare boolean columns).
const opaqueTruthy = "⊤"

// FromExpr converts a predicate expression into DNF. Comparisons must
// have a constant on one side; the other side becomes the term (its
// canonical rendering names the dimension). Predicates outside the
// col-op-const shape become opaque atoms, which still participate in
// boolean reasoning but not interval reasoning. A nil expression is TRUE.
//
// FromExpr returns an error when the same term is constrained both
// numerically and categorically, which indicates a typing bug upstream.
func FromExpr(e expr.Expr) (DNF, error) {
	if e == nil {
		return True(), nil
	}
	d, err := fromExpr(e, false)
	if err != nil {
		return False(), err
	}
	if err := d.checkTypes(); err != nil {
		return False(), err
	}
	return d, nil
}

func (d DNF) checkTypes() error {
	kinds := map[string]bool{} // term -> numeric?
	for _, c := range d.conjs {
		for _, t := range c.terms {
			if prev, seen := kinds[t.Name]; seen && prev != t.Con.Numeric {
				return fmt.Errorf("symbolic: term %q used both numerically and categorically", t.Name)
			}
			kinds[t.Name] = t.Con.Numeric
		}
	}
	return nil
}

func fromExpr(e expr.Expr, negated bool) (DNF, error) {
	switch n := e.(type) {
	case *expr.Const:
		if n.Val.Kind() == types.KindBool {
			if n.Val.Bool() != negated {
				return True(), nil
			}
			return False(), nil
		}
		return False(), fmt.Errorf("symbolic: non-boolean constant %s as predicate", n.Val)
	case *expr.Logic:
		l, err := fromExpr(n.L, negated)
		if err != nil {
			return False(), err
		}
		r, err := fromExpr(n.R, negated)
		if err != nil {
			return False(), err
		}
		// De Morgan: negation swaps the connective.
		if (n.Op == expr.OpAnd) != negated {
			return l.And(r), nil
		}
		return l.Or(r), nil
	case *expr.Not:
		return fromExpr(n.E, !negated)
	case *expr.Cmp:
		return atomFromCmp(n, negated)
	case *expr.IsNull:
		return opaqueAtom(n.String(), negated), nil
	case *expr.Column:
		return opaqueAtom(n.String(), negated), nil
	case *expr.Call:
		return opaqueAtom(n.String(), negated), nil
	default: // lint:nonexhaustive Arith/Star cannot appear as boolean predicates; rejected with an error
		return False(), fmt.Errorf("symbolic: unsupported predicate node %T (%s)", e, e)
	}
}

func opaqueAtom(term string, negated bool) DNF {
	var cat CatSet
	if negated {
		cat = NewCatSetNot(opaqueTruthy)
	} else {
		cat = NewCatSet(opaqueTruthy)
	}
	return FromConjuncts(NewConjunct().WithConstraint(term, CatConstraint(cat)))
}

func atomFromCmp(c *expr.Cmp, negated bool) (DNF, error) {
	op, term, con := c.Op, c.L, c.R
	if _, lIsConst := term.(*expr.Const); lIsConst {
		term, con = con, term
		op = op.Flip()
	}
	k, ok := con.(*expr.Const)
	if !ok {
		// term-vs-term comparison: opaque atom.
		return opaqueAtom(c.String(), negated), nil
	}
	if negated {
		nop, err := op.Negate()
		if err != nil {
			return False(), err
		}
		op = nop
	}
	name := term.String()
	val := k.Val
	switch val.Kind() {
	case types.KindInt, types.KindFloat:
		v := val.Float()
		var ivs IntervalSet
		switch op {
		case expr.OpEq:
			ivs = NewIntervalSet(Point(v))
		case expr.OpNe:
			ivs = NewIntervalSet(Point(v)).Complement()
		case expr.OpLt:
			ivs = NewIntervalSet(Interval{Lo: negInf(), LoOpen: true, Hi: v, HiOpen: true})
		case expr.OpLe:
			ivs = NewIntervalSet(Interval{Lo: negInf(), LoOpen: true, Hi: v})
		case expr.OpGt:
			ivs = NewIntervalSet(Interval{Lo: v, LoOpen: true, Hi: posInf(), HiOpen: true})
		case expr.OpGe:
			ivs = NewIntervalSet(Interval{Lo: v, Hi: posInf(), HiOpen: true})
		}
		return FromConjuncts(NewConjunct().WithConstraint(name, NumConstraint(ivs))), nil
	case types.KindString:
		s := val.Str()
		switch op {
		case expr.OpEq:
			return FromConjuncts(NewConjunct().WithConstraint(name, CatConstraint(NewCatSet(s)))), nil
		case expr.OpNe:
			return FromConjuncts(NewConjunct().WithConstraint(name, CatConstraint(NewCatSetNot(s)))), nil
		default: // lint:nonexhaustive ordered string comparisons collapse to one opaque atom
			// (negation was already folded into op above).
			return opaqueAtom(fmt.Sprintf("%s %s %s", name, op, val), false), nil
		}
	case types.KindBool:
		want := val.Bool() == (op == expr.OpEq)
		if op != expr.OpEq && op != expr.OpNe {
			return False(), fmt.Errorf("symbolic: ordered comparison with boolean in %q", c)
		}
		return opaqueAtom(name, !want), nil
	default:
		return False(), fmt.Errorf("symbolic: unsupported constant kind %s in %q", val.Kind(), c)
	}
}

func negInf() float64 { return math.Inf(-1) }

func posInf() float64 { return math.Inf(1) }
