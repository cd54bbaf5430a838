package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `range` over a map when the loop body has
// order-sensitive effects: Go randomizes map iteration order, so an
// append to an outer slice, a channel send, a hash/digest write, a
// view-log append, an output write or a floating-point sum (float
// arithmetic is not associative) performed per element produces a
// different observable on every run. That breaks the byte-identical
// digest contract of the differential/chaos matrices.
//
// Two escapes are accepted:
//
//   - the collect-then-sort idiom: a loop whose only order-sensitive
//     effect is appending to a slice that is later passed to a
//     sort/slices call in the same function body;
//   - an explicit "// lint:unordered <why>" annotation on or above
//     the range statement, for loops whose effect order genuinely
//     cannot leak (commutative merges, best-effort cleanup).
type MapIter struct {
	scopes []string
}

// NewMapIter builds the analyzer restricted to the given import-path
// specs (see MatchPath).
func NewMapIter(scopes ...string) *MapIter { return &MapIter{scopes: scopes} }

// Name implements Analyzer.
func (a *MapIter) Name() string { return "mapiter" }

// orderSinkMethods are method names whose calls accumulate their
// arguments in call order: hashing, log/batch appends and writer
// output. A call only counts when its receiver is declared outside
// the loop body (a loop-local builder cannot leak iteration order).
var orderSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Append": true, "AppendWith": true, "AppendRow": true, "AppendBatch": true,
	"Encode": true, "Sum": true, "Sum64": true,
}

// orderSinkFuncs are package-level output functions that write in call
// order regardless of their destination.
var orderSinkFuncs = map[string]bool{
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
}

// Check implements Analyzer.
func (a *MapIter) Check(u *Universe, pkg *Package) []Diagnostic {
	if !matchAny(a.scopes, pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		for _, b := range bodies {
			inspectShallow(b, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.Types[rng.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if u.Suppressed(pkg, rng.Pos(), "lint:unordered") {
					return true
				}
				if effect := a.orderSensitive(pkg, b, rng); effect != "" {
					diags = append(diags, Diagnostic{
						Pos:      u.Fset.Position(rng.Pos()),
						Analyzer: a.Name(),
						Message: fmt.Sprintf("map iteration order leaks through %s; sort the keys first or annotate // lint:unordered <why>",
							effect),
					})
				}
				return true
			})
		}
	}
	return diags
}

// orderSensitive scans one map-range body for order-sensitive effects
// and returns a description of the first unexcused one ("" = clean).
func (a *MapIter) orderSensitive(pkg *Package, fnBody *ast.BlockStmt, rng *ast.RangeStmt) string {
	body := rng.Body
	var effect string
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			effect = "a channel send"
		case *ast.AssignStmt:
			if name := floatAccumulator(pkg, rng, st); name != "" {
				effect = fmt.Sprintf("floating-point accumulation into %q", name)
				return false
			}
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i >= len(st.Lhs) {
					continue
				}
				obj := exprObject(pkg, st.Lhs[i])
				if obj == nil || declaredWithin(obj, body) {
					continue // loop-local accumulator
				}
				if sortedAfter(pkg, fnBody, rng, obj) {
					continue // collect-then-sort idiom
				}
				effect = fmt.Sprintf("append to %q", obj.Name())
			}
		case *ast.CallExpr:
			if name := sinkCall(pkg, body, st); name != "" {
				effect = fmt.Sprintf("a call to %s", name)
			}
		}
		return true
	})
	return effect
}

// floatAccumulator reports the variable an arithmetic compound
// assignment (+=, -=, *=, /=), or its spelled-out form `x = x + y`,
// accumulates into when it is a floating-point variable declared outside
// the loop ("" otherwise): floating-point arithmetic is not associative,
// so the result depends on the order the elements arrive in.
func floatAccumulator(pkg *Package, rng *ast.RangeStmt, st *ast.AssignStmt) string {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 || !arithOf(types.ExprString(st.Lhs[0]), st.Rhs[0]) {
			return ""
		}
	default:
		return ""
	}
	t := pkg.Info.Types[st.Lhs[0]].Type
	if t == nil {
		return ""
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return ""
	}
	obj := exprObject(pkg, st.Lhs[0])
	if obj == nil || declaredWithin(obj, rng) {
		return ""
	}
	return obj.Name()
}

// arithOf reports whether e is a + - * / expression with the expression
// spelled lhs among its operands, at any depth of such expressions.
func arithOf(lhs string, e ast.Expr) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	for _, op := range []ast.Expr{bin.X, bin.Y} {
		if types.ExprString(ast.Unparen(op)) == lhs || arithOf(lhs, op) {
			return true
		}
	}
	return false
}

// sinkCall reports the display name of an order-sensitive sink call
// ("" when the call is harmless or its receiver is loop-local).
func sinkCall(pkg *Package, body *ast.BlockStmt, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				qn := fn.Pkg().Name() + "." + fn.Name()
				if orderSinkFuncs[qn] {
					return qn
				}
				return ""
			}
		}
		if !orderSinkMethods[fun.Sel.Name] {
			return ""
		}
		recv := exprObject(pkg, baseExpr(fun.X))
		if recv == nil || declaredWithin(recv, body) {
			return ""
		}
		return recv.Name() + "." + fun.Sel.Name
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			if orderSinkFuncs[fn.Pkg().Name()+"."+fn.Name()] {
				return fn.Pkg().Name() + "." + fn.Name()
			}
		}
	}
	return ""
}

// baseExpr unwraps selectors/indexes/parens to the base identifier
// expression: a.b.c[i] -> a.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// exprObject resolves the variable object behind an lvalue-ish
// expression (an identifier, possibly wrapped in selectors/indexes),
// or nil when there is none.
func exprObject(pkg *Package, e ast.Expr) types.Object {
	id, ok := baseExpr(ast.Unparen(e)).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// declaredWithin reports whether the object's declaration lies inside
// the node's source span.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() <= n.End()
}

// sortedAfter reports whether, later in the same function body, obj is
// passed to a sort.* or slices.* call — the second half of the
// collect-then-sort idiom.
func sortedAfter(pkg *Package, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			argFound := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
					argFound = true
				}
				return !argFound
			})
			if argFound {
				found = true
				break
			}
		}
		return true
	})
	return found
}
