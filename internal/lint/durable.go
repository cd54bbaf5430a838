package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// Durable keeps the durable-write protocol in one place. In the
// storage packages a log write draws its faults (Injector.CheckWrite),
// rolls back by truncating (File.Truncate) and commits a scratch file
// by renaming it (os.Rename) — and those three calls, together with
// the order and accounting around them, are what storage.TailLog
// implements once, in logtail.go. A call to any of them from another
// file is the start of a second copy of the protocol, the kind that
// drifts: it is flagged unless annotated "// lint:durable <why>".
// Bare references (os.Rename stored in a variable) are flagged like
// calls.
type Durable struct {
	scopes []string
}

// NewDurable builds the analyzer restricted to the given import-path
// specs (see MatchPath).
func NewDurable(scopes ...string) *Durable { return &Durable{scopes: scopes} }

// Name implements Analyzer.
func (a *Durable) Name() string { return "durable" }

// durableHome is the one file allowed to hold the protocol.
const durableHome = "logtail.go"

// durablePrimitive names fn when it is one of the three primitives.
func durablePrimitive(fn *types.Func) string {
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		n := namedOf(r.Type())
		if n == nil {
			return ""
		}
		recv = n.Obj().Name()
	}
	switch {
	case fn.Pkg().Path() == "os" && recv == "" && fn.Name() == "Rename":
		return "os.Rename"
	case fn.Pkg().Path() == "os" && recv == "File" && fn.Name() == "Truncate":
		return "File.Truncate"
	case fn.Pkg().Name() == "faults" && recv == "Injector" && fn.Name() == "CheckWrite":
		return "Injector.CheckWrite"
	}
	return ""
}

// Check implements Analyzer.
func (a *Durable) Check(u *Universe, pkg *Package) []Diagnostic {
	if !matchAny(a.scopes, pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if filepath.Base(u.Fset.Position(f.Pos()).Filename) == durableHome {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			what := durablePrimitive(fn)
			if what == "" || u.Suppressed(pkg, sel.Pos(), "lint:durable") {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      u.Fset.Position(sel.Pos()),
				Analyzer: a.Name(),
				Message: fmt.Sprintf("%s outside %s: durable writes go through storage.TailLog (Append, Fold, Reset) or the sidecar helpers, or annotate // lint:durable <why>",
					what, durableHome),
			})
			return true
		})
	}
	return diags
}
