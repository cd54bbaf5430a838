package eva

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eva/internal/faults"
	"eva/internal/parser"
	"eva/internal/testutil"
)

// The invariance matrices (DESIGN.md §22) prove that reuse is
// invisible: whatever the worker count, batch size, pooling, fault
// schedule, restart, corruption or disk pressure, a client observes
// what the plain run observes. The seven root suites — differential,
// chaos, multi-session, reopen, scrub, evict and ingest — share what is
// in this file: one script loader, one digest of what a client
// observes, and one cell runner that compares a baseline digest with
// every cell's.

const (
	queryScripts    = "scripts/*.sql"
	standingScripts = "standing/*.sq"
)

// viewScripts are the query scripts that materialise views; the scrub
// and evict matrices need something on disk to corrupt or evict.
var viewScripts = []string{"reuse_flow.sql", "logical_udf.sql", "groupby_agg.sql"}

// script is one testdata file.
type script struct {
	name string // file name, the suites' subtest name
	src  string
}

// loadScripts reads the files matching glob under testdata, in name
// order, or only the named ones, in the order given.
func loadScripts(t *testing.T, glob string, names ...string) []script {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", glob))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts match testdata/%s: %v", glob, err)
	}
	if len(names) > 0 {
		paths = paths[:0]
		for _, n := range names {
			paths = append(paths, filepath.Join("testdata", filepath.Dir(glob), n))
		}
	}
	out := make([]script, len(paths))
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = script{filepath.Base(p), string(src)}
	}
	return out
}

// scriptSrc is the source of one query script.
func scriptSrc(t *testing.T, name string) string {
	t.Helper()
	return loadScripts(t, queryScripts, name)[0].src
}

// eachScript runs check once per query script (or per named one), each
// in a subtest named after the file.
func eachScript(t *testing.T, check func(*testing.T, script), names ...string) {
	t.Helper()
	for _, sc := range loadScripts(t, queryScripts, names...) {
		t.Run(sc.name, func(t *testing.T) { check(t, sc) })
	}
}

// schedule is one seeded fault regime (faults.Regimes); the zero
// schedule injects nothing.
type schedule struct {
	regime string
	seed   uint64
}

// seeded is the chaos suites' schedule for a seed: the regime cycles
// with the seed.
func seeded(seed uint64) schedule {
	return schedule{faults.Regimes[seed%uint64(len(faults.Regimes))], seed}
}

func (s schedule) name() string { return fmt.Sprintf("%s-seed%d", s.regime, s.seed) }

// injector builds the schedule's injector; nil for the zero schedule.
func (s schedule) injector() *faults.Injector {
	if s.regime == "" {
		return nil
	}
	return faults.NewRegime(s.regime, s.seed)
}

// openAt opens a System with cfg, in a fresh directory unless cfg.Dir
// is set, and closes it when the test ends (an earlier Close is fine).
func openAt(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// openLoaded is openAt with the jackson video loaded as table video.
func openLoaded(t *testing.T, cfg Config) *System {
	t.Helper()
	sys := openAt(t, cfg)
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		t.Fatal(err)
	}
	return sys
}

// closeOK closes sys and fails the test if that fails.
func closeOK(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// detail is how much of a statement's result enters a digest.
type detail int

const (
	// answers is rows and error text: all that a repaired, pressured or
	// reopened run must keep, since its reuse accounting and virtual time
	// legitimately differ.
	answers detail = iota
	// everything adds the plan text, the optimizer report, and the
	// virtual time with its breakdown.
	everything
)

// execer is a System or a Session: the same statement path either way.
type execer interface {
	ExecStmt(parser.Statement) (*Result, error)
}

// runStatements runs src through x statement by statement and digests
// each: its result at the given detail, or its error text. A failed
// statement does not stop the script, as in an exploratory session; the
// number that failed is returned beside the digest.
func runStatements(t *testing.T, x execer, src string, d detail) (digest string, failed int) {
	t.Helper()
	stmts, err := parser.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for i, stmt := range stmts {
		res, err := x.ExecStmt(stmt)
		fmt.Fprintf(&out, "== statement %d ==\n", i+1)
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			failed++
			continue
		}
		writeResult(&out, res, d)
	}
	return out.String(), failed
}

// answersOf is the answers-detail digest of running src through x.
func answersOf(t *testing.T, x execer, src string) string {
	t.Helper()
	out, _ := runStatements(t, x, src, answers)
	return out
}

func writeResult(out *strings.Builder, res *Result, d detail) {
	if res.Rows != nil && len(res.Rows.Schema()) > 0 {
		out.WriteString(Format(res.Rows))
	}
	if d == answers {
		return
	}
	out.WriteString(res.PlanText)
	writeReportDigest(out, res.Report)
	fmt.Fprintf(out, "simtime: %d\n", res.SimTime)
	writeBreakdownDigest(out, res.Breakdown)
}

// writeReportDigest covers every Report field except OptimizeTime,
// which is measured wall time (like Result.WallTime) and so differs
// between any two runs, serial or not.
func writeReportDigest(out *strings.Builder, r OptimizerReport) {
	fmt.Fprintf(out, "report: scan=[%d,%d) pre=%v order=%v eval=%q sources=%v degraded=%v\n",
		r.ScanLo, r.ScanHi, r.PreOrder, r.Order, r.DetectorEval, r.DetectorSources, r.Degraded)
	out.WriteString(sortedLines("  pred", r.Preds))
}

func writeBreakdownDigest(out *strings.Builder, b Breakdown) {
	for _, c := range slices.Sorted(maps.Keys(b)) {
		fmt.Fprintf(out, "  %s: %d\n", c, b[c])
	}
}

// sortedLines renders one "kind name: value" line per entry of m, in
// name order.
func sortedLines[V any](kind string, m map[string]V) string {
	var out strings.Builder
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&out, "%s %s: %+v\n", kind, name, m[name])
	}
	return out.String()
}

// stateDigest digests a System after a script: each view's row count,
// each UDF's counters, the hit percentage and the total virtual time.
func stateDigest(sys *System) string {
	return sortedLines("view", sys.ViewRows()) + sortedLines("udf", sys.UDFCounters()) +
		fmt.Sprintf("hit%%: %.6f\ntotal simtime: %d\n", sys.HitPercentage(), sys.SimulatedTime())
}

// faultsDigest is an injector's canonical event log and injection count
// (nothing for a nil injector).
func faultsDigest(inj *faults.Injector) string {
	if inj == nil {
		return ""
	}
	var out strings.Builder
	for _, ev := range inj.EventsSorted() {
		fmt.Fprintf(&out, "fault %+v\n", ev)
	}
	fmt.Fprintf(&out, "injected: %d\n", inj.Injected())
	return out.String()
}

// faultsIn counts the injected faults a digest records.
func faultsIn(digest string) int { return strings.Count(digest, "\nfault ") }

// injections tallies, per regime, the faults a suite's schedules
// injected, so that a regime gone silent — a renamed model, a dropped
// rule — fails the suite instead of passing it vacuously.
type injections map[string]int

// requireEach fails t for every regime that ran and injected nothing.
func (in injections) requireEach(t *testing.T) {
	t.Helper()
	for _, regime := range faults.Regimes {
		if n, ran := in[regime]; ran && n == 0 {
			t.Errorf("no %s schedule injected a fault — the regime is vacuous", regime)
		}
	}
}

// viewContentDigest captures every open view's logical content: row
// and processed-key counts plus the formatted rows in sorted order.
// Log order is excluded on purpose — repair re-appends lost rows at
// the tail and compaction rewrites the log, so physical order may
// differ from the baseline while content must not.
func viewContentDigest(sys *System) string {
	names := sys.store.Views()
	slices.Sort(names)
	var out strings.Builder
	for _, n := range names {
		v := sys.store.View(n)
		if v == nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(Format(v.Scan()), "\n"), "\n")
		slices.Sort(lines)
		fmt.Fprintf(&out, "view %s: rows=%d processed=%d\n%s\n",
			n, v.Rows(), v.ProcessedCount(), strings.Join(lines, "\n"))
	}
	return out.String()
}

// runScript runs src on a fresh System opened with cfg under sched and
// digests everything a client observes: every statement at full detail,
// the System's state after the script and the injected-fault log. A
// statement may fail only when sched injects faults.
func runScript(t *testing.T, cfg Config, src string, sched schedule) string {
	t.Helper()
	sys := openAt(t, cfg)
	defer sys.Close()
	inj := sched.injector()
	if inj != nil {
		sys.InjectFaults(inj)
	}
	out, failed := runStatements(t, sys, src, everything)
	if inj == nil && failed > 0 {
		t.Fatalf("%d statements failed without injected faults:\n%s", failed, out)
	}
	return out + stateDigest(sys) + faultsDigest(inj)
}

// cell is one run of a matrix: the subtest it runs in ("" for the
// caller's test) and its Config.
type cell struct {
	name string
	cfg  Config
}

// atWorkers is cfg at each worker count. name, a format with one %d for
// the worker count, names the cells' subtests; "" runs them in the
// caller's test.
func atWorkers(cfg Config, name string, workers ...int) []cell {
	cells := make([]cell, len(workers))
	for i, w := range workers {
		cfg.Workers = w
		cells[i].cfg = cfg
		if name != "" {
			cells[i].name = fmt.Sprintf(name, w)
		}
	}
	return cells
}

// matrix is the cell runner: it runs base once and then every cell, and
// fails each cell whose digest is not byte-identical to the baseline's.
// It returns the baseline digest.
func matrix(t *testing.T, run func(*testing.T, Config) string, base Config, cells []cell) string {
	t.Helper()
	want := run(t, base)
	for _, c := range cells {
		check := func(t *testing.T) {
			t.Helper()
			same(t, fmt.Sprintf("%s against %s", describe(c.cfg), describe(base)), want, run(t, c.cfg))
		}
		if c.name == "" {
			check(t)
		} else {
			t.Run(c.name, check)
		}
	}
	return want
}

// describe names the matrix axes of a Config.
func describe(cfg Config) string {
	s := fmt.Sprintf("workers=%d batch=%d", cfg.Workers, cfg.BatchSize)
	if cfg.Mode != "" {
		s += " mode=" + string(cfg.Mode)
	}
	if cfg.DisablePooling {
		s += " unpooled"
	}
	return s
}

// same fails t unless got is byte-identical to want, quoting the first
// line where the two part; digests run to hundreds of lines.
func same(t *testing.T, what, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("%s: diverged at line %d:\n  want: %q\n  got:  %q", what, i+1, wl[i], gl[i])
			return
		}
	}
	t.Errorf("%s: diverged in length: want %d lines, got %d", what, len(wl), len(gl))
}

// untroubled is what a script answers when nothing goes wrong: its
// first (cold) and second (warm) run on one System, the view content
// after them, the bytes its view logs are charged (in all, and the
// largest log), and the answers of a fresh System over that directory.
// A restart is invisible to reuse, so reopened is warm but for the
// catalog, which is not durable: a warm LOAD fails on the existing
// table, a reopened one succeeds.
type untroubled struct {
	src                         string
	cold, warm, reopened, views string
	viewBytes, largestViewBytes int64
}

func runUntroubled(t *testing.T, src string) untroubled {
	t.Helper()
	dir := t.TempDir()
	sys := openAt(t, Config{Dir: dir, Workers: 1})
	b := untroubled{src: src, cold: answersOf(t, sys, src), warm: answersOf(t, sys, src)}
	b.views = viewContentDigest(sys)
	closeOK(t, sys)
	b.viewBytes, b.largestViewBytes = viewLogBytes(t, dir)
	b.reopened = answersOf(t, openAt(t, Config{Dir: dir, Workers: 1}), src)
	return b
}

// checkReopened opens a fresh System over dir, whose System the caller
// has closed, and requires it to answer and hold what the untroubled
// run's reopen does, with one file per view.
func (b untroubled) checkReopened(t *testing.T, dir string, workers int) {
	t.Helper()
	sys := openAt(t, Config{Dir: dir, Workers: workers})
	same(t, "reopened answers", b.reopened, answersOf(t, sys, b.src))
	same(t, "reopened view content", b.views, viewContentDigest(sys))
	testutil.CheckOneFilePerView(t, dir)
}

// viewLogs returns the on-disk view log paths under dir, sorted.
func viewLogs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no view logs under %s: %v", dir, err)
	}
	return paths
}

// viewLogBytes is the bytes of the view logs under dir: in all, and the
// largest log's.
func viewLogBytes(t *testing.T, dir string) (total, largest int64) {
	t.Helper()
	for _, p := range viewLogs(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		largest = max(largest, fi.Size())
	}
	return total, largest
}
