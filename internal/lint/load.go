package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// FindModuleRoot walks upward from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Load parses and type-checks the packages selected by patterns,
// resolved relative to the module root. Supported patterns:
//
//	./...        every module package (testdata trees excluded)
//	dir/...      the subtree rooted at dir
//	dir          the single package in dir
//
// It returns the Universe of all loaded module packages (targets plus
// their module dependencies) and the target packages themselves.
// Fixture packages under testdata are only loaded when a pattern
// names them explicitly.
func Load(root string, patterns []string) (*Universe, []*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	targets, err := l.resolve(patterns)
	if err != nil {
		return nil, nil, err
	}
	u := &Universe{Fset: l.fset, ModulePath: modPath, loader: l}
	for _, p := range l.pkgs {
		u.Packages = append(u.Packages, p)
	}
	sort.Slice(u.Packages, func(i, j int) bool { return u.Packages[i].Path < u.Packages[j].Path })
	return u, targets, nil
}

// resolve loads the packages selected by patterns (see Load).
func (l *loader) resolve(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ds, err := packageDirs(l.root, l.root, false)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				addDir(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			inTestdata := strings.Contains(base, string(filepath.Separator)+"testdata")
			ds, err := packageDirs(l.root, base, inTestdata)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				addDir(d)
			}
		default:
			addDir(filepath.Join(l.root, filepath.FromSlash(pat)))
		}
	}

	var pkgs []*Package
	for _, d := range dirs {
		path, err := l.pathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// modulePath reads the module directive from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// packageDirs lists the directories under base that contain at least
// one non-test Go file. Unless includeTestdata is set, testdata trees
// (along with hidden and vendor directories) are skipped — mirroring
// how the go tool resolves "./...".
func packageDirs(root, base string, includeTestdata bool) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "vendor" {
				return filepath.SkipDir
			}
			if name == "testdata" && !includeTestdata {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// buildTagSatisfied reports whether the file's //go:build constraint
// (if any) holds under the default build configuration — the one the
// repo's tier-1 `go build ./...` sees: host GOOS/GOARCH, gc, and no
// extra tags. Files gated on custom tags (evadebug) or toolchain modes
// (race) are the alternate halves of paired variants; loading both
// halves would redeclare their shared symbols.
func buildTagSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
					strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return true
}

type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func (l *loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// load parses and type-checks one module package (memoized), loading
// its module dependencies recursively via the importer.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !buildTagSatisfied(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves module-internal imports through the loader and
// everything else (the standard library) through the source importer.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
