// Package expr defines the expression AST shared by the parser, the
// symbolic engine, the optimizer, and the execution engine. Expressions
// are immutable once built; rewrites produce new trees.
package expr

import (
	"fmt"
	"strings"

	"eva/internal/types"
)

// Expr is a node in an expression tree.
//
// The implementations form a sealed set (Column, Const, Cmp, Logic,
// Not, IsNull, Arith, Call, Star); switches over Expr must handle
// every variant.
//
// lint:exhaustive
type Expr interface {
	// String renders the expression canonically. Two structurally equal
	// expressions render identically; the symbolic engine uses this
	// rendering as the term name for columns and UDF calls.
	String() string
	// Children returns the direct sub-expressions.
	Children() []Expr
}

// CmpOp is a comparison operator.
//
// lint:exhaustive
type CmpOp int

// Comparison operators supported by the EVA-QL predicate grammar.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Negate returns the complementary operator (e.g. < becomes >=). An
// out-of-range operator — only producible by arithmetic on the enum —
// is reported as an error so query-path callers surface a planning
// failure instead of panicking.
func (op CmpOp) Negate() (CmpOp, error) {
	switch op {
	case OpEq:
		return OpNe, nil
	case OpNe:
		return OpEq, nil
	case OpLt:
		return OpGe, nil
	case OpLe:
		return OpGt, nil
	case OpGt:
		return OpLe, nil
	case OpGe:
		return OpLt, nil
	}
	return op, fmt.Errorf("expr: negate of unknown operator CmpOp(%d)", int(op))
}

// Flip returns the operator with swapped operands (a < b ⇔ b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpEq, OpNe:
		return op
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Column references a named column of the operator's input schema.
type Column struct {
	Name string
}

// NewColumn returns a column reference.
func NewColumn(name string) *Column { return &Column{Name: name} }

func (c *Column) String() string   { return strings.ToLower(c.Name) }
func (c *Column) Children() []Expr { return nil }

// Const is a literal value.
type Const struct {
	Val types.Datum
}

// NewConst returns a literal expression.
func NewConst(v types.Datum) *Const { return &Const{Val: v} }

func (c *Const) String() string   { return c.Val.String() }
func (c *Const) Children() []Expr { return nil }

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns a comparison expression.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op, c.R.String())
}
func (c *Cmp) Children() []Expr { return []Expr{c.L, c.R} }

// LogicOp is a boolean connective.
//
// lint:exhaustive
type LogicOp int

// Boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

// String returns the SQL spelling of the connective.
func (op LogicOp) String() string {
	if op == OpAnd {
		return "AND"
	}
	return "OR"
}

// Logic combines two boolean expressions.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// NewAnd returns l AND r.
func NewAnd(l, r Expr) *Logic { return &Logic{Op: OpAnd, L: l, R: r} }

// NewOr returns l OR r.
func NewOr(l, r Expr) *Logic { return &Logic{Op: OpOr, L: l, R: r} }

func (l *Logic) String() string {
	return fmt.Sprintf("(%s %s %s)", l.L.String(), l.Op, l.R.String())
}
func (l *Logic) Children() []Expr { return []Expr{l.L, l.R} }

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// NewNot returns NOT e.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (n *Not) String() string   { return fmt.Sprintf("NOT (%s)", n.E.String()) }
func (n *Not) Children() []Expr { return []Expr{n.E} }

// IsNull tests whether a value is NULL; the conditional Apply operator's
// pass-through predicate is built from this node.
type IsNull struct {
	E Expr
}

// NewIsNull returns e IS NULL.
func NewIsNull(e Expr) *IsNull { return &IsNull{E: e} }

func (n *IsNull) String() string   { return fmt.Sprintf("%s IS NULL", n.E.String()) }
func (n *IsNull) Children() []Expr { return []Expr{n.E} }

// ArithOp is an arithmetic operator.
//
// lint:exhaustive
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("ArithOp(%d)", int(op))
	}
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith returns an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op, a.R.String())
}
func (a *Arith) Children() []Expr { return []Expr{a.L, a.R} }

// Call invokes a function: either a cheap scalar builtin (e.g. AREA) or
// a UDF wrapping a vision model (e.g. CarType(frame, bbox)). The
// optimizer decides which calls are expensive enough to materialize.
type Call struct {
	Fn   string
	Args []Expr
	// Accuracy carries the ACCURACY property when the call names a
	// logical UDF (e.g. ObjectDetector ACCURACY 'HIGH'); empty otherwise.
	Accuracy string
}

// NewCall returns a function-call expression.
// lint:testonly tests build calls; the parser fills Call literals
func NewCall(fn string, args ...Expr) *Call { return &Call{Fn: fn, Args: args} }

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	s := fmt.Sprintf("%s(%s)", strings.ToLower(c.Fn), strings.Join(parts, ", "))
	if c.Accuracy != "" {
		s += " accuracy '" + strings.ToLower(c.Accuracy) + "'"
	}
	return s
}
func (c *Call) Children() []Expr { return c.Args }

// Star is the `*` select item (also used for COUNT(*)).
type Star struct{}

func (Star) String() string   { return "*" }
func (Star) Children() []Expr { return nil }

// Equal reports structural equality of two expressions, using the
// canonical rendering (which is injective over the AST by construction).
// lint:testonly the parser round-trip test's comparison
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == OpAnd {
		return append(SplitConjuncts(l.L), SplitConjuncts(l.R)...)
	}
	return []Expr{e}
}

// CombineConjuncts joins expressions with AND; returns nil for an empty
// list (the always-true predicate).
func CombineConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewAnd(out, e)
		}
	}
	return out
}

// Walk visits e and every sub-expression in pre-order, in Children
// order. It reads the children off each node rather than calling
// Children, which builds a slice per node: the planner walks every
// predicate of every statement.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *Cmp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Logic:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Arith:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Not:
		Walk(n.E, visit)
	case *IsNull:
		Walk(n.E, visit)
	case *Call:
		for _, arg := range n.Args {
			Walk(arg, visit)
		}
	case *Column, *Const, Star, *Star:
	}
}

// CollectCalls returns every Call in the expression, in pre-order.
func CollectCalls(e Expr) []*Call {
	var out []*Call
	Walk(e, func(n Expr) {
		if c, ok := n.(*Call); ok {
			out = append(out, c)
		}
	})
	return out
}

// CollectColumns returns the set of column names referenced by e.
func CollectColumns(e Expr) []string {
	seen := make(map[string]struct{})
	var out []string
	Walk(e, func(n Expr) {
		if c, ok := n.(*Column); ok {
			key := strings.ToLower(c.Name)
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				out = append(out, c.Name)
			}
		}
	})
	return out
}

// Rewrite rebuilds the expression bottom-up, replacing each node with
// f(node) after its children have been rewritten. f must return the node
// itself (possibly reconstructed) or a replacement.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Cmp:
		e = NewCmp(n.Op, Rewrite(n.L, f), Rewrite(n.R, f))
	case *Logic:
		e = &Logic{Op: n.Op, L: Rewrite(n.L, f), R: Rewrite(n.R, f)}
	case *Not:
		e = NewNot(Rewrite(n.E, f))
	case *IsNull:
		e = NewIsNull(Rewrite(n.E, f))
	case *Arith:
		e = NewArith(n.Op, Rewrite(n.L, f), Rewrite(n.R, f))
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Rewrite(a, f)
		}
		e = &Call{Fn: n.Fn, Args: args, Accuracy: n.Accuracy}
	default: // lint:nonexhaustive leaf nodes (Column, Const, Star) have no children to rewrite
	}
	return f(e)
}
