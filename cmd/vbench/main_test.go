package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/vbench"
)

// TestRunRejects covers the ways the one entry refuses a request: each
// exits non-zero, names the problem on stderr and writes no file.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		name, exp, want string
		json            bool
	}{
		{name: "unknown experiment", exp: "nope", want: `unknown experiment "nope"`},
		{name: "json with all", exp: "all", json: true, want: "-json writes one experiment's data"},
		{name: "json on a text-only experiment", exp: "table5", json: true, want: `"table5" is text-only`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			args := []string{"-exp", tc.exp}
			if tc.json {
				args = append(args, "-json", path)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code == 0 {
				t.Errorf("exit 0, want non-zero; stdout:\n%s", &stdout)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", &stderr, tc.want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s was written (stat: %v)", path, err)
			}
		})
	}
}

// TestRunWritesJSON checks -json writes the experiment's Data as
// MarshalIndent plus a newline, beside the usual printed table.
func TestRunWritesJSON(t *testing.T) {
	e, err := vbench.ExperimentByID("chaos")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(vbench.ExpConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(rep.Data, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "chaos.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "chaos", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Errorf("-json wrote:\n%s\nwant:\n%s", got, want)
	}
	for _, s := range []string{"=== " + e.Title + " ===", rep.Text, "wrote " + path} {
		if !strings.Contains(stdout.String(), s) {
			t.Errorf("stdout lacks %q:\n%s", s, &stdout)
		}
	}
}

// TestRunList checks -list prints one line per registered experiment.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if got, want := strings.Count(stdout.String(), "\n"), len(vbench.Experiments()); got != want {
		t.Errorf("-list printed %d lines, want %d", got, want)
	}
}
