package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// Durable keeps the durable-write protocol and the on-disk frame in one
// place each. In the storage packages a log write draws its faults
// (Injector.CheckWrite), rolls back by truncating (File.Truncate) and
// commits a scratch file by renaming it (os.Rename) — and those three
// calls, together with the order and accounting around them, are what
// storage.TailLog implements once, in logtail.go. Every durable file is
// checksummed (xxhash.Sum64) by the frame codec, frame.go, alone. A call
// to any of the four from another file is the start of a second copy of
// the protocol or of a layout, the kind that drifts: it is flagged
// unless annotated "// lint:durable <why>". Bare references (os.Rename
// stored in a variable) are flagged like calls.
type Durable struct {
	scopes []string
}

// NewDurable builds the analyzer restricted to the given import-path
// specs (see MatchPath).
func NewDurable(scopes ...string) *Durable { return &Durable{scopes: scopes} }

// Name implements Analyzer.
func (a *Durable) Name() string { return "durable" }

// The one file allowed to hold the write protocol, and the one allowed
// to hold the frame, with what a use elsewhere should go through.
const (
	protocolHome = "logtail.go"
	frameHome    = "frame.go"
	protocolWay  = "durable writes go through storage.TailLog (Append, Fold, rewrite) or writeFileAtomic"
	frameWay     = "a durable file is checksummed by the frame codec (sealRecord, sealFile)"
)

// durablePrimitive names fn when it is one of the four primitives, with
// its home file and the sanctioned way around it.
func durablePrimitive(fn *types.Func) (what, home, way string) {
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		n := namedOf(r.Type())
		if n == nil {
			return "", "", ""
		}
		recv = n.Obj().Name()
	}
	switch {
	case fn.Pkg().Path() == "os" && recv == "" && fn.Name() == "Rename":
		return "os.Rename", protocolHome, protocolWay
	case fn.Pkg().Path() == "os" && recv == "File" && fn.Name() == "Truncate":
		return "File.Truncate", protocolHome, protocolWay
	case fn.Pkg().Name() == "faults" && recv == "Injector" && fn.Name() == "CheckWrite":
		return "Injector.CheckWrite", protocolHome, protocolWay
	case fn.Pkg().Name() == "xxhash" && recv == "" && fn.Name() == "Sum64":
		return "xxhash.Sum64", frameHome, frameWay
	}
	return "", "", ""
}

// Check implements Analyzer.
func (a *Durable) Check(u *Universe, pkg *Package) []Diagnostic {
	if !matchAny(a.scopes, pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		file := filepath.Base(u.Fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			what, home, way := durablePrimitive(fn)
			if what == "" || file == home || u.Suppressed(pkg, sel.Pos(), "lint:durable") {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      u.Fset.Position(sel.Pos()),
				Analyzer: a.Name(),
				Message:  fmt.Sprintf("%s outside %s: %s, or annotate // lint:durable <why>", what, home, way),
			})
			return true
		})
	}
	return diags
}
