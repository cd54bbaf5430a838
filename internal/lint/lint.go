// Package lint is eva's project-specific static-analysis framework.
// It loads the module's packages with the standard library's go/ast,
// go/parser and go/types (no golang.org/x/tools dependency) and runs
// analyzers that machine-check invariants the type system cannot
// express: exhaustive switches over sealed node/operator types,
// mutex-guarded field access, a panic-free query path, and error
// discipline in the optimizer/executor layers.
//
// Annotations understood by the suite:
//
//	lint:exhaustive        (in a type's doc comment) marks a sealed
//	                       interface or operator enum; every switch
//	                       over it must cover all variants.
//	lint:nonexhaustive     (on or above a default clause) justifies a
//	                       deliberately partial switch.
//	guarded by <field>     (on a struct field) names the sync.Mutex or
//	                       sync.RWMutex that protects the field.
//	lint:nolock            (on or above an access) suppresses the
//	                       guarded-by check for one access.
//	lint:invariant         (on or above a panic call) justifies a
//	                       panic in the query path.
//	lint:noerrcheck        (on or above a statement) suppresses the
//	                       error-discipline check.
//	lint:trackedgo <why>   (on or above a go statement) marks the
//	                       sanctioned spawn point in the serving layer,
//	                       where bare go statements are otherwise
//	                       forbidden.
//	lint:wallclock <why>   (on or above a time.* / math/rand use)
//	                       sanctions a deliberate wall-clock read in a
//	                       deterministic package.
//	lint:unordered <why>   (on or above a map range) asserts the loop's
//	                       effect order cannot leak into observables.
//	lint:hotpath <why>     (directly above a function) marks a row-loop
//	                       function that must not heap-allocate per
//	                       row.
//	lint:coldalloc <why>   (on or above a statement in a hotpath row
//	                       loop) exempts a deliberate cold allocation.
//	lint:faultsite <why>   (on or above an injector call) sanctions a
//	                       site name outside the faults.Sites registry.
//	lint:durable <why>     (on or above a CheckWrite / os.Rename /
//	                       File.Truncate / xxhash.Sum64 use in the
//	                       storage packages) sanctions a durable-write
//	                       primitive outside logtail.go, or a hash
//	                       outside frame.go.
//	lint:testonly <why>    (in a top-level declaration's doc comment
//	                       or on its line) keeps a declaration of an
//	                       internal package that only tests reach: an
//	                       oracle, a digest accessor, a test seam.
//
// Methods whose name ends in "Locked" are exempt from the guarded-by
// check by convention: their contract is that the caller holds the
// lock.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer inspects one type-checked package and reports diagnostics.
type Analyzer interface {
	Name() string
	Check(u *Universe, pkg *Package) []Diagnostic
}

// Package is one parsed and type-checked module package.
type Package struct {
	Path  string // module-qualified import path, e.g. "eva/internal/exec"
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	lineText map[*ast.File]map[int]string
}

// Universe is the set of loaded packages plus the caches analyzers
// share: the sealed-type registry and per-file comment indexes.
type Universe struct {
	Fset       *token.FileSet
	ModulePath string
	Packages   []*Package // every loaded module package, sorted by path

	loader      *loader // loads further packages on demand (see LoadTree)
	sealedOnce  bool
	sealedTypes map[*types.TypeName]*sealedType
}

// LoadTree loads every package the pattern selects, with Load's
// pattern rules, sharing the packages already loaded. Packages it adds
// do not join u.Packages, which stays the set Load itself loaded.
func (u *Universe) LoadTree(pattern string) ([]*Package, error) {
	return u.loader.resolve([]string{pattern})
}

// PackageFor returns the loaded package with the given import path,
// or nil.
func (u *Universe) PackageFor(path string) *Package {
	for _, p := range u.Packages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Suppressed reports whether a comment containing marker appears on
// the line of pos or the line directly above it.
func (u *Universe) Suppressed(pkg *Package, pos token.Pos, marker string) bool {
	f := pkg.fileFor(pos)
	if f == nil {
		return false
	}
	lines := pkg.commentLines(u.Fset, f)
	line := u.Fset.Position(pos).Line
	return strings.Contains(lines[line], marker) || strings.Contains(lines[line-1], marker)
}

func (p *Package) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// commentLines indexes a file's comments by line so suppression
// markers can be matched against the line they annotate.
func (p *Package) commentLines(fset *token.FileSet, f *ast.File) map[int]string {
	if p.lineText == nil {
		p.lineText = map[*ast.File]map[int]string{}
	}
	if m, ok := p.lineText[f]; ok {
		return m
	}
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				m[l] += c.Text + "\n"
			}
		}
	}
	p.lineText[f] = m
	return m
}

// MatchPath reports whether import path p matches spec. A spec ending
// in "/..." matches the prefix package and everything below it;
// otherwise the match is exact.
func MatchPath(spec, p string) bool {
	if base, ok := strings.CutSuffix(spec, "/..."); ok {
		return p == base || strings.HasPrefix(p, base+"/")
	}
	return spec == p
}

func matchAny(specs []string, p string) bool {
	for _, s := range specs {
		if MatchPath(s, p) {
			return true
		}
	}
	return false
}

// DefaultAnalyzers is the analyzer configuration enforced on the eva
// tree (and by cmd/evalint). The path-scoped analyzers also cover
// their own fixture trees so the seeded violations under
// internal/lint/testdata fire when targeted explicitly.
func DefaultAnalyzers(modPath string) []Analyzer {
	qp := func(rel string) string { return modPath + "/" + rel }
	// The deterministic engine packages: every observable they produce
	// must be a pure function of (query, seed, configuration), which is
	// what the differential/chaos digest matrices verify dynamically
	// and the walltime/mapiter analyzers prove statically.
	deterministic := []string{
		qp("internal/core/..."),
		qp("internal/exec/..."),
		qp("internal/storage/..."),
		qp("internal/symbolic/..."),
		qp("internal/faults/..."),
		qp("internal/udf/..."),
		qp("internal/optimizer/..."),
		qp("internal/server/..."),
		qp("internal/ingest/..."),
	}
	return []Analyzer{
		&ExhaustiveSwitch{},
		&GuardedBy{},
		NewNoPanic(
			qp("internal/exec/..."),
			qp("internal/optimizer/..."),
			qp("internal/expr/..."),
			qp("internal/symbolic/..."),
			qp("internal/storage/..."),
			qp("internal/lint/testdata/src/nopanic/..."),
		),
		NewErrDiscipline(
			qp("internal/exec/..."),
			qp("internal/optimizer/..."),
			qp("internal/lint/testdata/src/errdiscipline/..."),
		),
		NewTrackedGoroutine(
			qp("internal/server/..."),
			qp("internal/ingest/..."),
			// The storage scrubber spawns a background goroutine; it must
			// go through server.Group like every other long-lived spawn.
			qp("internal/storage/..."),
			qp("internal/lint/testdata/src/trackedgoroutine/..."),
		),
		NewWallTime(append([]string{qp("internal/lint/testdata/src/walltime/...")}, deterministic...)...),
		// The benchmark harness digests what the engine produced, so its
		// digests must not depend on map order either; it stays out of
		// walltime's scope because measuring wall time is its job.
		NewMapIter(append([]string{qp("internal/lint/testdata/src/mapiter/..."), qp("internal/vbench/...")}, deterministic...)...),
		NewHotAlloc(),
		&FaultSite{},
		NewDurable(
			qp("internal/storage/..."),
			qp("internal/ingest/..."),
			qp("internal/lint/testdata/src/durable/..."),
		),
		&Unreferenced{},
	}
}

// Run executes every analyzer over every target package and returns
// the diagnostics sorted by position.
func Run(u *Universe, targets []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, a := range analyzers {
			diags = append(diags, a.Check(u, pkg)...)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// namedOf unwraps pointers and aliases and returns the named type, or
// nil if t is not (a pointer to) a named type.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}
