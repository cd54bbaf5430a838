package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata subtree and runs the default
// analyzer suite over it.
func loadFixture(t *testing.T, rel string) (*Universe, []Diagnostic) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	u, targets, err := Load(root, []string{rel})
	if err != nil {
		t.Fatal(err)
	}
	return u, Run(u, targets, DefaultAnalyzers(u.ModulePath))
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// wantComment is one expected diagnostic: the fixture file (base
// name), the line the violation sits on, and a substring of the
// message.
type wantComment struct {
	file   string
	line   int
	substr string
}

// collectWants extracts the `// ... want "substring"` expectations
// from every file of the universe's fixture packages.
func collectWants(u *Universe) []wantComment {
	var wants []wantComment
	for _, p := range u.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					wants = append(wants, wantComment{
						file:   filepath.Base(pos.Filename),
						line:   pos.Line,
						substr: m[1],
					})
				}
			}
		}
	}
	return wants
}

// TestFixtures checks each analyzer against its positive (bad) and
// negative (ok) fixture twins: every `want` comment must be matched
// by exactly one diagnostic at its file and line, and no diagnostic
// may appear without a `want`.
func TestFixtures(t *testing.T) {
	for _, tree := range []string{"exhaustive", "guardedby", "nopanic", "errdiscipline", "trackedgoroutine", "walltime", "mapiter", "hotalloc", "faultsite", "durable", "unreferenced"} {
		t.Run(tree, func(t *testing.T) {
			u, diags := loadFixture(t, "internal/lint/testdata/src/"+tree+"/...")
			wants := collectWants(u)
			if len(wants) == 0 {
				t.Fatalf("fixture tree %s has no want comments", tree)
			}
			matched := make([]bool, len(wants))
			for _, d := range diags {
				found := false
				for i, w := range wants {
					if matched[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
						continue
					}
					if !strings.Contains(d.Message, w.substr) {
						t.Errorf("%s: diagnostic at the want line but message %q does not contain %q", d, d.Message, w.substr)
					}
					matched[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
				}
			}
		})
	}
}

// TestOkFixturesClean re-checks that the negative twins alone produce
// zero diagnostics — the suppression hatches, *Locked convention, and
// wrapped-error patterns must all be accepted.
func TestOkFixturesClean(t *testing.T) {
	for _, tree := range []string{"exhaustive", "guardedby", "nopanic", "errdiscipline", "trackedgoroutine", "walltime", "mapiter", "hotalloc", "faultsite", "durable", "unreferenced"} {
		t.Run(tree, func(t *testing.T) {
			_, diags := loadFixture(t, "internal/lint/testdata/src/"+tree+"/ok")
			for _, d := range diags {
				t.Errorf("ok fixture produced a diagnostic: %s", d)
			}
		})
	}
}

// TestDiagnosticPositions pins the exact file:line:column of one
// representative diagnostic per analyzer, so position reporting can
// never silently drift.
func TestDiagnosticPositions(t *testing.T) {
	cases := []struct {
		tree     string
		analyzer string
		suffix   string // file:line:col relative to the fixture dir
	}{
		{"exhaustive", "exhaustive-switch", "exhaustive/bad/bad.go:34:2"},
		{"guardedby", "guarded-by", "guardedby/bad/bad.go:17:2"},
		{"nopanic", "no-panic", "nopanic/bad/bad.go:7:3"},
		{"errdiscipline", "error-discipline", "errdiscipline/bad/bad.go:9:5"},
		{"trackedgoroutine", "tracked-goroutine", "trackedgoroutine/bad/bad.go:7:2"},
		{"walltime", "walltime", "walltime/bad/bad.go:12:11"},
		{"mapiter", "mapiter", "mapiter/bad/bad.go:14:2"},
		{"hotalloc", "hotalloc", "hotalloc/bad/bad.go:19:13"},
		{"faultsite", "faultsite", "faultsite/bad/bad.go:10:11"},
		{"durable", "durable", "durable/bad/bad.go:14:15"},
		{"durable", "durable", "durable/bad/checksum.go:11:48"},
		{"unreferenced", "unreferenced", "unreferenced/bad/internal/lib/lib.go:20:6"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			_, diags := loadFixture(t, "internal/lint/testdata/src/"+tc.tree+"/bad/...")
			for _, d := range diags {
				got := fmt.Sprintf("%s:%d:%d", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column)
				if d.Analyzer == tc.analyzer && strings.HasSuffix(got, tc.suffix) {
					return
				}
			}
			var all []string
			for _, d := range diags {
				all = append(all, d.String())
			}
			t.Errorf("no %s diagnostic at %s; got:\n%s", tc.analyzer, tc.suffix, strings.Join(all, "\n"))
		})
	}
}

// TestUnreferencedWholeWorld pins every unreferenced diagnostic of the
// positive fixture at file:line:col, once with the fixture tree loaded
// whole and once with only the internal package given: the analyzer
// loads the packages that reference it either way, so the two runs
// agree, and the negative twin's internal package stays clean alone.
func TestUnreferencedWholeWorld(t *testing.T) {
	const lib = "unreferenced/bad/internal/lib/lib.go:"
	want := []string{
		lib + "18:6: unreferenced: func lib.Dead is reached",
		lib + "20:6: unreferenced: func lib.deadLeaf is reached",
		lib + "38:17: unreferenced: method lib.Square.Perimeter is reached",
		lib + "47:17: unreferenced: method lib.Batch.grow is reached",
		lib + "58:6: unreferenced: func lib.Bare carries lint:testonly without a reason",
		lib + "60:6: unreferenced: type lib.deadType is reached",
		lib + "62:17: unreferenced: method lib.deadType.m is reached",
		lib + "64:5: unreferenced: var lib.deadVar is reached",
		lib + "66:7: unreferenced: const lib.deadConst is reached",
		lib + "72:2: unreferenced: const lib.low is reached",
	}
	for _, tc := range []struct {
		tree string
		want []string
	}{
		{"unreferenced/...", want},
		{"unreferenced/bad/internal/lib", want},
		{"unreferenced/ok/internal/lib", nil},
	} {
		t.Run(tc.tree, func(t *testing.T) {
			_, diags := loadFixture(t, "internal/lint/testdata/src/"+tc.tree)
			var got []string
			for _, d := range diags {
				if d.Analyzer == "unreferenced" {
					got = append(got, filepath.ToSlash(d.String()))
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i := range got {
				if !strings.Contains(got[i], "/src/"+tc.want[i]) {
					t.Errorf("diagnostic %d = %s, want %s…", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestTreeClean is the gate the Makefile's check target relies on:
// the production tree must lint clean under the default suite.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	u, targets, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(u, targets, DefaultAnalyzers(u.ModulePath))
	for _, d := range diags {
		t.Errorf("tree not lint-clean: %s", d)
	}
}

// TestMatchPath covers the path-spec matcher used to scope analyzers.
func TestMatchPath(t *testing.T) {
	cases := []struct {
		spec, path string
		want       bool
	}{
		{"eva/internal/exec", "eva/internal/exec", true},
		{"eva/internal/exec", "eva/internal/exec/sub", false},
		{"eva/internal/exec/...", "eva/internal/exec", true},
		{"eva/internal/exec/...", "eva/internal/exec/sub", true},
		{"eva/internal/exec/...", "eva/internal/execute", false},
	}
	for _, tc := range cases {
		if got := MatchPath(tc.spec, tc.path); got != tc.want {
			t.Errorf("MatchPath(%q, %q) = %v, want %v", tc.spec, tc.path, got, tc.want)
		}
	}
}
