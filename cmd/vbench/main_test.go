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
		name, exp, scale, want string
		json                   bool
	}{
		{name: "unknown experiment", exp: "nope", want: `unknown experiment "nope"`},
		{name: "json with all", exp: "all", json: true, want: "-json writes one experiment's data"},
		{name: "json on a text-only experiment", exp: "table5", json: true, want: `"table5" is text-only`},
		{name: "scale zero", exp: "table5", scale: "0", want: "-scale 0 is outside (0, 1]"},
		{name: "scale above one", exp: "table5", scale: "2", want: "-scale 2 is outside (0, 1]"},
		{name: "scale NaN", exp: "table5", scale: "NaN", want: "-scale NaN is outside (0, 1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			args := []string{"-exp", tc.exp}
			if tc.json {
				args = append(args, "-json", path)
			}
			if tc.scale != "" {
				args = append(args, "-scale", tc.scale)
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
// MarshalIndent plus a newline, beside the usual printed table. The
// server experiment's cells are measured wall time, so the file is
// checked against its own decoding, not against a second run.
func TestRunWritesJSON(t *testing.T) {
	e, err := vbench.ExperimentByID("server")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "server.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "server", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res vbench.ServerResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatalf("-json wrote what does not decode as %T: %v\n%s", res, err, got)
	}
	want, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Errorf("-json wrote:\n%s\nwant:\n%s", got, want)
	}
	for _, s := range []string{"=== " + e.Title + " ===", "wrote " + path} {
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
