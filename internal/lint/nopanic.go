package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic forbids calls to the builtin panic in the query-path
// packages: a malformed predicate or an unexpected operator must
// surface as a returned error, never crash a serving process. It
// equally forbids calling a panic wrapper — a function or method named
// Must*, Go's convention for "panics instead of returning the error"
// (types.Batch.MustAppendRow, types.MustSchema): behind one, a kind
// the plan inferred wrongly takes the process down instead of failing
// the statement. Lines annotated "// lint:invariant <why>" are exempt
// (true invariant violations that indicate programmer error, not
// data).
type NoPanic struct {
	scopes []string
}

// NewNoPanic builds the analyzer restricted to the given import-path
// specs (see MatchPath).
func NewNoPanic(scopes ...string) *NoPanic { return &NoPanic{scopes: scopes} }

// Name implements Analyzer.
func (a *NoPanic) Name() string { return "no-panic" }

// Check implements Analyzer.
func (a *NoPanic) Check(u *Universe, pkg *Package) []Diagnostic {
	if !matchAny(a.scopes, pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			var msg string
			switch obj := pkg.Info.Uses[id].(type) {
			case *types.Builtin:
				if obj.Name() != "panic" {
					return true
				}
				msg = "panic in the query path; return an error or annotate // lint:invariant <why>"
			case *types.Func:
				if !isMustName(obj.Name()) {
					return true
				}
				msg = obj.Name() + " panics on error; in the query path call the error-returning form or annotate // lint:invariant <why>"
			default:
				return true
			}
			if u.Suppressed(pkg, call.Pos(), "lint:invariant") {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      u.Fset.Position(call.Pos()),
				Analyzer: a.Name(),
				Message:  msg,
			})
			return true
		})
	}
	return diags
}

// isMustName reports whether name follows the Must* convention: "Must"
// and then an upper-case letter (MustAppendRow, not Mustard).
func isMustName(name string) bool {
	rest, ok := strings.CutPrefix(name, "Must")
	return ok && rest != "" && rest[0] >= 'A' && rest[0] <= 'Z'
}
