package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"eva/internal/expr"
	"eva/internal/types"
)

// Conjunct is a conjunction of per-term constraints: a product region.
// A term absent from the map is unconstrained. The empty conjunct is
// the always-true predicate.
type Conjunct struct {
	cons map[string]Constraint
}

// NewConjunct returns the always-true conjunct.
func NewConjunct() Conjunct { return Conjunct{cons: map[string]Constraint{}} }

// WithConstraint returns a copy of the conjunct with term ∧= c.
func (c Conjunct) WithConstraint(term string, con Constraint) Conjunct {
	out := c.clone()
	if existing, ok := out.cons[term]; ok {
		con = existing.Intersect(con)
	}
	if con.Full() {
		delete(out.cons, term)
	} else {
		out.cons[term] = con
	}
	return out
}

func (c Conjunct) clone() Conjunct {
	out := Conjunct{cons: make(map[string]Constraint, len(c.cons))}
	for k, v := range c.cons {
		out.cons[k] = v
	}
	return out
}

// Terms returns the constrained term names in sorted order.
func (c Conjunct) Terms() []string {
	out := make([]string, 0, len(c.cons))
	for t := range c.cons {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Constraint returns the constraint on term; (full, false) if absent.
func (c Conjunct) Constraint(term string) (Constraint, bool) {
	con, ok := c.cons[term]
	return con, ok
}

// get returns the constraint on term, substituting a full constraint of
// the same kind as ref when absent.
func (c Conjunct) get(term string, ref Constraint) Constraint {
	if con, ok := c.cons[term]; ok {
		return con
	}
	return fullLike(ref)
}

// Empty reports whether the conjunct is unsatisfiable.
func (c Conjunct) Empty() bool {
	for _, con := range c.cons {
		if con.Empty() {
			return true
		}
	}
	return false
}

// Intersect returns the conjunction of two conjuncts.
func (c Conjunct) Intersect(o Conjunct) Conjunct {
	out := c.clone()
	for t, con := range o.cons {
		if existing, ok := out.cons[t]; ok {
			out.cons[t] = existing.Intersect(con)
		} else {
			out.cons[t] = con
		}
	}
	return out
}

// SubsetOf reports whether every point satisfying c satisfies o.
func (c Conjunct) SubsetOf(o Conjunct) bool {
	if c.Empty() {
		return true
	}
	for t, ocon := range o.cons {
		if !c.get(t, ocon).SubsetOf(ocon) {
			return false
		}
	}
	return true
}

// Equal reports whether the conjuncts constrain identically.
// lint:testonly the algebra's property tests compare conjuncts
func (c Conjunct) Equal(o Conjunct) bool {
	return c.SubsetOf(o) && o.SubsetOf(c)
}

// AtomCount counts the atomic formulas in the conjunct.
func (c Conjunct) AtomCount() int {
	n := 0
	for _, con := range c.cons {
		n += con.AtomCount()
	}
	return n
}

// Evaluate reports whether the sample point satisfies the conjunct.
func (c Conjunct) Evaluate(point map[string]Value) (bool, error) {
	for t, con := range c.cons {
		v, ok := point[t]
		if !ok {
			return false, fmt.Errorf("symbolic: no sample value for term %q", t)
		}
		in, err := con.containsValue(v)
		if err != nil {
			return false, fmt.Errorf("term %q: %w", t, err)
		}
		if !in {
			return false, nil
		}
	}
	return true, nil
}

// String renders the conjunct.
func (c Conjunct) String() string {
	if len(c.cons) == 0 {
		return "TRUE"
	}
	terms := c.Terms()
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t + " " + c.cons[t].String()
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
func (d DNF) Conjuncts() []Conjunct { return d.conjs }

// IsFalse reports whether the predicate is unsatisfiable.
func (d DNF) IsFalse() bool { return len(d.conjs) == 0 }

// IsTrue reports whether the predicate is a tautology (some conjunct
// has no constraints).
// lint:testonly the algebra's property tests check tautologies
func (d DNF) IsTrue() bool {
	for _, c := range d.conjs {
		if len(c.cons) == 0 {
			return true
		}
	}
	return false
}

// Terms returns the union of term names across conjuncts, sorted.
// lint:testonly the truth-table oracle enumerates the terms
func (d DNF) Terms() []string {
	set := map[string]struct{}{}
	for _, c := range d.conjs {
		for t := range c.cons {
			set[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
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
		if len(c.cons) == 0 {
			return False() // ¬TRUE
		}
		for _, t := range c.Terms() {
			con := c.cons[t]
			neg := con.Complement()
			if neg.Empty() {
				continue
			}
			comp.conjs = append(comp.conjs, NewConjunct().WithConstraint(t, neg))
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
		for t, con := range c.cons {
			if prev, seen := kinds[t]; seen && prev != con.Numeric {
				return fmt.Errorf("symbolic: term %q used both numerically and categorically", t)
			}
			kinds[t] = con.Numeric
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
