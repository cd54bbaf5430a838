package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unreferenced keeps code that only tests use out of the build. It
// reports every top-level declaration of an internal package — func,
// method, type, const or var, exported or not — that no non-test code
// outside internal/ reaches (in eva: the root package, cmd/, examples/
// and bench/).
//
// Reachability is computed over a world, loaded whole whichever
// packages the analyzer is given: the module, or for a package under
// testdata/src the fixture tree it belongs to. Test files are never
// loaded.
//
//   - Roots: every declaration of a world package with no "internal"
//     path element; every init, main and blank (_) declaration; every
//     declaration annotated "// lint:testonly <why>" (one without a
//     reason keeps nothing and is reported).
//   - Edges: every identifier a reachable declaration uses. A reference
//     from an unreachable declaration does not count, so a dead cluster
//     is reported whole in one run, not one layer per run.
//   - A method of a reachable type is reachable when it could satisfy a
//     method of an interface of the world or of a package it imports
//     (the standard library included), or of the errors package's
//     unnamed Unwrap/Is/As contracts.
//   - The exported methods of a type a root package re-exports by alias
//     are public API, hence reachable.
type Unreferenced struct {
	u      *Universe
	worlds map[string]*world // by base, for u
}

// Name implements Analyzer.
func (a *Unreferenced) Name() string { return "unreferenced" }

// world is the outcome of loading and walking one package tree.
type world struct {
	live map[types.Object]bool
	err  error
}

// decl is one top-level declared name, how messages call it, and the
// syntax whose identifiers are its edges.
type decl struct {
	obj        types.Object
	ident      *ast.Ident
	kind, name string
	pkg        *Package
	node       ast.Node
	docs       []*ast.CommentGroup // where a lint:testonly annotation may sit
}

// Check implements Analyzer.
func (a *Unreferenced) Check(u *Universe, pkg *Package) []Diagnostic {
	base := worldBase(u.ModulePath, pkg.Path)
	if !isInternal(base, pkg.Path) {
		return nil
	}
	w := a.load(u, base)
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: u.Fset.Position(pos), Analyzer: a.Name(), Message: msg})
	}
	if w.err != nil {
		report(pkg.Files[0].Package, fmt.Sprintf("cannot load the packages that may reference %s: %v", pkg.Path, w.err))
		return diags
	}
	for _, f := range pkg.Files {
		for _, d := range declsOf(pkg, f) {
			if annotated, reasoned := d.testonly(); annotated && !reasoned {
				report(d.ident.Pos(), fmt.Sprintf("%s %s carries lint:testonly without a reason; say which test needs it", d.kind, d.name))
			} else if !w.live[d.obj] {
				report(d.ident.Pos(), fmt.Sprintf("%s %s is reached by no non-test code outside internal/; delete it, or annotate // lint:testonly <why>", d.kind, d.name))
			}
		}
	}
	return diags
}

// worldBase is the package tree whose references count for pkgPath:
// its fixture tree when it lies under testdata/src, else the module.
func worldBase(mod, pkgPath string) string {
	const src = "/testdata/src/"
	if i := strings.Index(pkgPath, src); i >= 0 {
		tree, _, _ := strings.Cut(pkgPath[i+len(src):], "/")
		return pkgPath[:i+len(src)] + tree
	}
	return mod
}

// isInternal reports whether pkgPath lies under an internal directory
// of the world rooted at base.
func isInternal(base, pkgPath string) bool {
	return slices.Contains(strings.Split(strings.TrimPrefix(pkgPath, base), "/"), "internal")
}

// load loads the world rooted at base and walks it, once per universe.
func (a *Unreferenced) load(u *Universe, base string) *world {
	if a.u != u {
		a.u, a.worlds = u, map[string]*world{}
	}
	if w := a.worlds[base]; w != nil {
		return w
	}
	w := &world{}
	if pkgs, err := u.LoadTree("." + strings.TrimPrefix(base, u.ModulePath) + "/..."); err != nil {
		w.err = err
	} else {
		w.live = walk(base, pkgs)
	}
	a.worlds[base] = w
	return w
}

// walk returns the declarations of the world's packages that its roots
// reach.
func walk(base string, pkgs []*Package) map[types.Object]bool {
	live := map[types.Object]bool{}
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*decl{}
	var queue []*decl
	mark := func(obj types.Object) {
		if d := decls[origin(obj)]; d != nil && !live[d.obj] {
			live[d.obj] = true
			queue = append(queue, d)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range declsOf(p, f) {
				decls[d.obj] = d
				if tn := recvTypeName(d.obj); tn != nil {
					methods[tn] = append(methods[tn], d)
				}
			}
		}
	}
	for _, d := range decls {
		if _, reasoned := d.testonly(); reasoned || isEntry(d) || !isInternal(base, d.pkg.Path) {
			mark(d.obj)
		}
	}
	ifaces := interfaceMethods(pkgs)
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mark(d.pkg.Info.Uses[id])
			}
			return true
		})
		// A constant's type need not be spelled out (iota runs); an alias
		// reaches its target's methods as a type would.
		n := namedOf(d.obj.Type())
		if n == nil {
			continue
		}
		mark(n.Origin().Obj())
		if tn, ok := d.obj.(*types.TypeName); ok {
			api := tn.IsAlias() && !isInternal(base, d.pkg.Path)
			for _, m := range methods[n.Origin().Obj()] {
				satisfies := func(s *types.Signature) bool { return types.Identical(s, m.obj.Type()) }
				if api && m.obj.Exported() || slices.ContainsFunc(ifaces[m.obj.Id()], satisfies) {
					mark(m.obj)
				}
			}
		}
	}
	return live
}

// declsOf lists a file's top-level declared names.
func declsOf(p *Package, f *ast.File) []*decl {
	var ds []*decl
	add := func(id *ast.Ident, kind string, node ast.Node, docs ...*ast.CommentGroup) {
		obj, name := p.Info.Defs[id], p.Types.Name()+"."+id.Name
		if tn := recvTypeName(obj); tn != nil {
			kind, name = "method", p.Types.Name()+"."+tn.Name()+"."+id.Name
		}
		ds = append(ds, &decl{obj: obj, ident: id, kind: kind, name: name, pkg: p, node: node, docs: docs})
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			add(gd.Name, "func", gd, gd.Doc)
		case *ast.GenDecl:
			for _, s := range gd.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "type", s, gd.Doc, s.Doc, s.Comment)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, gd.Tok.String(), s, gd.Doc, s.Doc, s.Comment)
					}
				}
			}
		}
	}
	return ds
}

// testonly reports whether the declaration carries a lint:testonly
// annotation, and whether one gives a reason.
func (d *decl) testonly() (annotated, reasoned bool) {
	for _, cg := range d.docs {
		for _, line := range strings.Split(cg.Text(), "\n") {
			if rest, ok := strings.CutPrefix(line, "lint:testonly"); ok {
				annotated, reasoned = true, reasoned || strings.TrimSpace(rest) != ""
			}
		}
	}
	return annotated, reasoned
}

// isEntry reports whether the runtime reaches d without a reference:
// init, main and blank declarations.
func isEntry(d *decl) bool {
	name := d.ident.Name
	return name == "_" || d.kind == "func" && (name == "init" || name == "main" && d.pkg.Types.Name() == "main")
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName returns the declared type a method belongs to, or nil
// when obj is not a method.
func recvTypeName(obj types.Object) *types.TypeName {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if n := namedOf(fn.Signature().Recv().Type()); n != nil {
			return n.Origin().Obj()
		}
	}
	return nil
}

// errorsContracts are error and the interfaces package errors asserts
// without naming them.
const errorsContracts = `package p
type a interface { error; Unwrap() error; Is(error) bool; As(any) bool }
type b interface { Unwrap() []error }`

// interfaceMethods indexes by method Id the signatures of the methods
// of every interface the world's packages spell out or declare, that
// their imports declare, or that errorsContracts lists.
func interfaceMethods(pkgs []*Package) map[string][]*types.Signature {
	sigs := map[string][]*types.Signature{}
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			for i := range it.NumMethods() {
				sigs[it.Method(i).Id()] = append(sigs[it.Method(i).Id()], it.Method(i).Signature())
			}
		}
	}
	seen := map[*types.Package]bool{}
	var declared func(tp *types.Package)
	declared = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			declared(imp)
		}
	}
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "", errorsContracts, 0)
	contracts, _ := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	declared(contracts)
	for _, p := range pkgs {
		declared(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return sigs
}
