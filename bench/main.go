// Command bench is the repository's benchmark: wall-clock VBENCH-HIGH
// sessions on six workloads, with the time attributed to each layer a
// query crosses. BENCHMARK.json at the repository root names the
// workloads, metrics and bounds; bench/README.md explains them.
//
//	go run ./bench                                  # all workloads, both passes
//	go run ./bench -workload high-warm -trace 0     # one workload, end-to-end metrics
//	go run ./bench -workload high-warm -trace 1     # one workload, per-layer metrics
//	go run ./bench -check                           # the suite twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// flushPolicy is stated in every output: the benchmark changes nothing
// about how the engine writes.
const flushPolicy = "engine default: view appends are write(2) without per-append fsync; segments are written once and renamed"

// header describes one invocation.
type header struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds_per_run"`
	Scale      float64 `json:"scale"`
	Dense      string  `json:"dense_dataset"`
	Sparse     string  `json:"sparse_dataset"`
	Load       string  `json:"load"`
	Flush      string  `json:"flush_policy"`
}

// gitRev is the revision stamped into the binary by go build, or what
// git reports for the working directory under go run (which does not
// stamp); "unknown" in a checkout that is not a repository.
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func newHeader(cfg config) header {
	shape := func(sparse bool) string {
		ds := genInputs(cfg.Seed, sparse, cfg.Scale).Dataset
		return fmt.Sprintf("%d frames %dx%d, %.1f objects/frame", ds.Frames, ds.Width, ds.Height, ds.Density)
	}
	return header{
		GitRev: gitRev(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale,
		Dense: shape(false), Sparse: shape(true),
		Load:  "one process, default eva.Config, closed loop, one client (sessions-2: two)",
		Flush: flushPolicy,
	}
}

// report is what -json writes.
type report struct {
	Header header       `json:"header"`
	Claim  *string      `json:"claim"`
	Runs   []*runResult `json:"runs"`
}

func printRun(r *runResult) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer"
	}
	fmt.Printf("%s [%s]: %d sessions, %d queries attempted, %d failed\n", r.Workload, pass, r.Sessions, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Printf("  %-40s %14.4f %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
}

// printContract prints the driver's result object as the last line.
func printContract(r *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suite runs both passes of every workload.
func suite(cfg config, t *tracer) ([]*runResult, error) {
	var runs []*runResult
	for _, wl := range workloads {
		e2e, err := runEndToEnd(cfg, wl)
		if err != nil {
			return nil, err
		}
		printRun(e2e)
		traced, err := runTraced(cfg, wl, t)
		if err != nil {
			return nil, err
		}
		printRun(traced)
		runs = append(runs, e2e, traced)
	}
	return runs, nil
}

func failedOps(runs []*runResult) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

func run() error {
	cfg := config{MinSessions: minSessions, SetupReps: setupReps}
	name := flag.String("workload", "", "run one workload (default: all six, both passes)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	check := flag.Bool("check", false, "run the suite twice and compare every metric against its bound")
	jsonPath := flag.String("json", "", "write the report here (default <out>/result.json)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed of the dataset, the frame-range jitter and the query constants")
	flag.Float64Var(&cfg.Seconds, "seconds", 12, "timed seconds per run")
	flag.Float64Var(&cfg.Scale, "scale", 1, "multiplies both datasets' frame counts")
	flag.StringVar(&cfg.OutDir, "out", filepath.Join("bench", "out"), "directory for scratch data, result.json and trace.json")
	flag.Parse()
	if flag.NArg() > 0 || cfg.Seconds <= 0 || cfg.Scale <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad arguments; see -h")
	}
	if *jsonPath == "" {
		*jsonPath = filepath.Join(cfg.OutDir, "result.json")
	}
	hdr := newHeader(cfg)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	fmt.Printf("header %s\n", hb)

	t := newTracer()
	rep := report{Header: hdr}
	disagree := 0
	switch {
	case *name != "":
		wl, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		var r *runResult
		if *trace == 1 {
			r, err = runTraced(cfg, wl, t)
		} else {
			r, err = runEndToEnd(cfg, wl)
		}
		if err != nil {
			return err
		}
		rep.Runs = []*runResult{r}
		printRun(r)
	case *check:
		// Read the bounds first: a wrong working directory should fail
		// now, not after both passes.
		bounds, err := loadBounds("BENCHMARK.json")
		if err != nil {
			return err
		}
		first, err := suite(cfg, t)
		if err != nil {
			return err
		}
		if rep.Runs, err = suite(cfg, t); err != nil {
			return err
		}
		disagree = compare(first, rep.Runs, bounds)
	default:
		if rep.Runs, err = suite(cfg, t); err != nil {
			return err
		}
	}
	if err := writeJSON(*jsonPath, rep); err != nil {
		return err
	}
	if len(t.spans) > 0 {
		if err := writeJSON(filepath.Join(cfg.OutDir, "trace.json"), t.spans); err != nil {
			return err
		}
	}
	if *name != "" {
		if err := printContract(rep.Runs[0]); err != nil {
			return err
		}
	}
	if n := failedOps(rep.Runs); n > 0 {
		return fmt.Errorf("%d failed operations (errors, shed queries or digest mismatches)", n)
	}
	if disagree > 0 {
		return fmt.Errorf("-check: %d (metric, workload) pairs disagree", disagree)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
