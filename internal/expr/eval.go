package expr

import (
	"fmt"
	"strings"

	"eva/internal/types"
)

// Resolver supplies column values and function implementations during
// evaluation. The execution engine implements it per-row; tests use
// MapResolver.
type Resolver interface {
	// Resolve returns the value of the named column and whether it exists.
	Resolve(name string) (types.Datum, bool)
	// CallFn evaluates a scalar function over already-evaluated arguments.
	CallFn(fn string, args []types.Datum) (types.Datum, error)
}

// MapResolver is a Resolver backed by a map of column values and an
// optional function table.
// lint:testonly the row the expr and symbolic oracle tests evaluate against
type MapResolver struct {
	Cols map[string]types.Datum
	Fns  map[string]func(args []types.Datum) (types.Datum, error)
}

// Resolve implements Resolver.
func (m MapResolver) Resolve(name string) (types.Datum, bool) {
	d, ok := m.Cols[strings.ToLower(name)]
	return d, ok
}

// CallFn implements Resolver.
func (m MapResolver) CallFn(fn string, args []types.Datum) (types.Datum, error) {
	f, ok := m.Fns[strings.ToLower(fn)]
	if !ok {
		return types.Null, fmt.Errorf("expr: unknown function %q", fn)
	}
	return f(args)
}

// Eval evaluates the expression against the resolver.
//
// NULL semantics are pragmatic rather than full SQL three-valued logic:
// a comparison involving NULL is false (so negative predicates do not
// resurrect missing rows), NOT flips the boolean, and IS NULL observes
// NULL directly. This matches how the paper's conditional Apply operator
// uses NULLs purely as missing-row markers in view joins.
func Eval(e Expr, r Resolver) (types.Datum, error) {
	switch n := e.(type) {
	case *Const:
		return n.Val, nil
	case *Column:
		d, ok := r.Resolve(n.Name)
		if !ok {
			return types.Null, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return d, nil
	case *Cmp:
		l, err := Eval(n.L, r)
		if err != nil {
			return types.Null, err
		}
		rv, err := Eval(n.R, r)
		if err != nil {
			return types.Null, err
		}
		if l.IsNull() || rv.IsNull() {
			return types.NewBool(false), nil
		}
		if !types.Comparable(l, rv) {
			return types.Null, fmt.Errorf("expr: cannot compare %s with %s in %q", l.Kind(), rv.Kind(), e)
		}
		c := types.Compare(l, rv)
		var ok bool
		switch n.Op {
		case OpEq:
			ok = c == 0
		case OpNe:
			ok = c != 0
		case OpLt:
			ok = c < 0
		case OpLe:
			ok = c <= 0
		case OpGt:
			ok = c > 0
		case OpGe:
			ok = c >= 0
		}
		return types.NewBool(ok), nil
	case *Logic:
		l, err := evalBool(n.L, r)
		if err != nil {
			return types.Null, err
		}
		// Short-circuit.
		if n.Op == OpAnd && !l {
			return types.NewBool(false), nil
		}
		if n.Op == OpOr && l {
			return types.NewBool(true), nil
		}
		rv, err := evalBool(n.R, r)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(rv), nil
	case *Not:
		v, err := evalBool(n.E, r)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(!v), nil
	case *IsNull:
		v, err := Eval(n.E, r)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull()), nil
	case *Arith:
		l, err := Eval(n.L, r)
		if err != nil {
			return types.Null, err
		}
		rv, err := Eval(n.R, r)
		if err != nil {
			return types.Null, err
		}
		return evalArith(n.Op, l, rv)
	case *Call:
		args := make([]types.Datum, len(n.Args))
		for i, a := range n.Args {
			v, err := Eval(a, r)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return r.CallFn(n.Fn, args)
	case Star, *Star:
		return types.Null, fmt.Errorf("expr: cannot evaluate * outside an aggregate")
	default:
		return types.Null, fmt.Errorf("expr: cannot evaluate %T", e)
	}
}

func evalBool(e Expr, r Resolver) (bool, error) {
	v, err := Eval(e, r)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("expr: %q is %s, want BOOLEAN", e, v.Kind())
	}
	return v.Bool(), nil
}

// EvalBool evaluates a predicate; NULL results count as false.
func EvalBool(e Expr, r Resolver) (bool, error) {
	if e == nil {
		return true, nil
	}
	return evalBool(e, r)
}

func evalArith(op ArithOp, l, r types.Datum) (types.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	if !l.Kind().Numeric() || !r.Kind().Numeric() {
		return types.Null, fmt.Errorf("expr: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return types.NewInt(a + b), nil
		case OpSub:
			return types.NewInt(a - b), nil
		case OpMul:
			return types.NewInt(a * b), nil
		case OpDiv:
			if b == 0 {
				return types.Null, fmt.Errorf("expr: integer division by zero")
			}
			return types.NewInt(a / b), nil
		case OpMod:
			if b == 0 {
				return types.Null, fmt.Errorf("expr: modulo by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case OpAdd:
		return types.NewFloat(a + b), nil
	case OpSub:
		return types.NewFloat(a - b), nil
	case OpMul:
		return types.NewFloat(a * b), nil
	case OpDiv:
		if b == 0 {
			return types.Null, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(a / b), nil
	case OpMod:
		return types.Null, fmt.Errorf("expr: modulo on floats")
	}
	return types.Null, fmt.Errorf("expr: unknown arithmetic operator %v", op)
}
