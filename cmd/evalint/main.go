// Command evalint runs eva's project-specific static analyzers over
// the module: exhaustive-switch, guarded-by, no-panic,
// error-discipline, tracked-goroutine, walltime, mapiter, hotalloc,
// faultsite and durable (see internal/lint). It is stdlib-only — packages are
// loaded with go/parser and go/types directly.
//
// Usage:
//
//	evalint                # analyze the whole module (./...)
//	evalint ./...          # same
//	evalint -json ./...    # machine-readable findings on stdout
//	evalint internal/exec  # analyze one package directory
//	evalint internal/lint/testdata/src/nopanic/...   # fixture subtree
//
// Diagnostics print as file:line:col: analyzer: message (or, with
// -json, as a JSON array of {file, line, col, analyzer, message}
// objects), and the exit status is non-zero when any are found.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"eva/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evalint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evalint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line:col lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Patterns are given relative to the working directory; the loader
	// resolves them relative to the module root.
	for i, p := range patterns {
		if p == "./..." || p == "..." {
			continue
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return err
		}
		patterns[i] = filepath.ToSlash(rel)
	}

	u, targets, err := lint.Load(root, patterns)
	if err != nil {
		return err
	}
	diags := lint.Run(u, targets, lint.DefaultAnalyzers(u.ModulePath))
	for i := range diags {
		diags[i] = relDiag(root, diags[i])
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	return nil
}

// relDiag shortens absolute fixture paths to module-relative ones for
// readable output.
func relDiag(root string, d lint.Diagnostic) lint.Diagnostic {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
		d.Pos.Filename = rel
	}
	return d
}
