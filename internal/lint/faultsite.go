package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// FaultSite resolves every site name reaching the fault injector —
// the string argument of Injector.Rule, Check, CheckEval and
// CheckWrite — against the faults.Sites registry. A typo'd site
// ("veiw:write:*") matches nothing at runtime and silently stops
// injecting, which is exactly the failure mode a fault-injection
// harness cannot be allowed to have.
//
// The registry is read from the faults package itself, so analyzer
// and runtime cannot drift: constants named Site*Prefix open a site
// family, the remaining Site* string constants are exact sites or
// wildcard patterns. The analyzer validates
//
//   - constant site arguments (literals and constant expressions)
//     against the registry, honoring trailing-"*" wildcards;
//   - concatenations whose leftmost operand is a string literal
//     ("udf:" + name): the literal must open a registered family;
//   - calls to the faults.Site* constructors (always valid).
//
// Non-constant arguments (a variable holding a constructor result)
// pass — the value was validated where it was built. A deliberately
// unregistered site carries "// lint:faultsite <why>".
type FaultSite struct{}

// Name implements Analyzer.
func (a *FaultSite) Name() string { return "faultsite" }

// siteMethods are the Injector methods whose first argument is a site
// name or rule pattern.
var siteMethods = map[string]bool{
	"Rule": true, "Check": true, "CheckEval": true, "CheckWrite": true,
}

// siteRegistry is the exact/prefix site-family registry extracted
// from the faults package's Site* constants.
type siteRegistry struct {
	exact    []string
	prefixes []string
}

// loadRegistry reads the Site* constants out of the loaded faults
// package. Returns nil when the faults package is not in the universe
// (then no Injector calls can exist in it either).
func loadRegistry(u *Universe) *siteRegistry {
	fp := u.PackageFor(u.ModulePath + "/internal/faults")
	if fp == nil {
		return nil
	}
	reg := &siteRegistry{}
	scope := fp.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Site") || c.Val().Kind() != constant.String {
			continue
		}
		v := constant.StringVal(c.Val())
		switch {
		case strings.HasSuffix(name, "Prefix"):
			reg.prefixes = append(reg.prefixes, v)
		case strings.HasSuffix(v, "*"):
			// Wildcard patterns (SiteAny, Site*Any) derive from the
			// prefixes; they need no registry entry of their own.
		default:
			reg.exact = append(reg.exact, v)
		}
	}
	return reg
}

// resolves mirrors faults.RegisteredSite: a site or "*"-pattern is
// valid when it names an exact site, a member of a prefix family, or
// a wildcard that can match at least one registered site.
func (reg *siteRegistry) resolves(pat string) bool {
	if pat == "*" {
		return true
	}
	if stem, ok := strings.CutSuffix(pat, "*"); ok {
		return reg.opensFamily(stem)
	}
	for _, e := range reg.exact {
		if pat == e {
			return true
		}
	}
	for _, p := range reg.prefixes {
		if strings.HasPrefix(pat, p) && len(pat) > len(p) {
			return true
		}
	}
	return false
}

// opensFamily reports whether stem is on the way to (or past the
// start of) a registered family or exact site, so "stem*" and
// "stem"+dynamic can match registered sites.
func (reg *siteRegistry) opensFamily(stem string) bool {
	for _, p := range reg.prefixes {
		if strings.HasPrefix(p, stem) || strings.HasPrefix(stem, p) {
			return true
		}
	}
	for _, e := range reg.exact {
		if strings.HasPrefix(e, stem) {
			return true
		}
	}
	return false
}

// Check implements Analyzer.
func (a *FaultSite) Check(u *Universe, pkg *Package) []Diagnostic {
	reg := loadRegistry(u)
	if reg == nil {
		return nil
	}
	faultsPath := u.ModulePath + "/internal/faults"
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pkg, call)
			if fn == nil || !siteMethods[fn.Name()] || fn.Pkg() == nil || fn.Pkg().Path() != faultsPath {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || namedOf(sig.Recv().Type()) == nil ||
				namedOf(sig.Recv().Type()).Obj().Name() != "Injector" {
				return true
			}
			if msg := a.checkSiteArg(pkg, reg, faultsPath, call.Args[0]); msg != "" {
				if u.Suppressed(pkg, call.Pos(), "lint:faultsite") {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:      u.Fset.Position(call.Args[0].Pos()),
					Analyzer: a.Name(),
					Message:  msg,
				})
			}
			return true
		})
	}
	return diags
}

// checkSiteArg validates one site argument, returning a diagnostic
// message or "" when the argument is acceptable.
func (a *FaultSite) checkSiteArg(pkg *Package, reg *siteRegistry, faultsPath string, arg ast.Expr) string {
	arg = ast.Unparen(arg)
	// Constant (literal or constant expression): full validation.
	if tv, ok := pkg.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		site := constant.StringVal(tv.Value)
		if !reg.resolves(site) {
			return fmt.Sprintf("fault site %q is not in the faults.Sites registry; use a faults.Site* constructor or constant, or annotate // lint:faultsite <why>", site)
		}
		return ""
	}
	switch e := arg.(type) {
	case *ast.CallExpr:
		// A faults.Site* constructor is valid by construction.
		if fn := calleeFunc(pkg, e); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == faultsPath && strings.HasPrefix(fn.Name(), "Site") {
			return ""
		}
	case *ast.BinaryExpr:
		// "prefix" + dynamic: the literal prefix must open a family.
		left := e.X
		for {
			b, ok := ast.Unparen(left).(*ast.BinaryExpr)
			if !ok {
				break
			}
			left = b.X
		}
		if tv, ok := pkg.Info.Types[ast.Unparen(left)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			stem := constant.StringVal(tv.Value)
			if !reg.opensFamily(stem) {
				return fmt.Sprintf("fault-site prefix %q does not open a registered family in faults.Sites; use a faults.Site*Prefix constant, or annotate // lint:faultsite <why>", stem)
			}
		}
	}
	return "" // dynamic value: validated where it was built
}
