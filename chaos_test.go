package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"eva/internal/faults"
	"eva/internal/parser"
)

// The chaos differential matrix extends the serial-vs-parallel harness
// of differential_test.go to fault-injected execution: every testdata
// script runs under seeded fault schedules spanning all four regimes
// (transient, permanent, crash, deadline), and every parallel cell
// must produce a byte-identical digest — including per-statement
// errors, the canonical injected-fault event log, materialized view
// state and virtual-clock totals — to the serial run with the same
// seed. This is the executable proof that unpinning the parallel
// engine under fault injection (call-identity-keyed decisions,
// frozen breaker snapshots, serial-order outcome commits) preserved
// the determinism contract.

// chaosSeeds is the number of seeded schedules per script; each seed
// maps to one regime via chaosRegimes[seed%4], as in TestFaultSweep.
const chaosSeeds = 24

// statementsDigest executes a script statement by statement through x
// — a System or a Session, the same statement path either way — and
// digests everything each statement returns. Unlike the fault-free
// harness, statements may fail: the error text joins the digest (it
// must be deterministic too) and execution continues, mirroring an
// exploratory session that shrugs off a failed query.
func statementsDigest(t *testing.T, out *strings.Builder, x interface {
	ExecStmt(parser.Statement) (*Result, error)
}, src string) {
	t.Helper()
	stmts, err := parser.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		res, err := x.ExecStmt(stmt)
		fmt.Fprintf(out, "== statement %d ==\n", i+1)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		if res.Rows != nil && len(res.Rows.Schema()) > 0 {
			out.WriteString(Format(res.Rows))
		}
		writeReportDigest(out, res.Report)
		fmt.Fprintf(out, "simtime: %d\n", res.SimTime)
		writeBreakdownDigest(out, res.Breakdown)
	}
}

// writeFaultLog appends the injector's canonical event log (nothing
// for a nil injector).
func writeFaultLog(out *strings.Builder, inj *faults.Injector) {
	if inj == nil {
		return
	}
	for _, ev := range inj.EventsSorted() {
		fmt.Fprintf(out, "fault %+v\n", ev)
	}
	fmt.Fprintf(out, "injected: %d\n", inj.Injected())
}

// runChaosDigest executes a whole script in a fresh system under the
// given fault regime, returning a digest of everything observable.
func runChaosDigest(t *testing.T, src string, cfg Config, seed uint64, regime string) string {
	t.Helper()
	cfg.Dir = t.TempDir()
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var inj *faults.Injector
	if regime != "" {
		inj = faults.New(seed)
		installRegime(inj, regime, seed)
		sys.InjectFaults(inj)
	}

	var out strings.Builder
	statementsDigest(t, &out, sys, src)
	views := sys.ViewRows()
	names := make([]string, 0, len(views))
	for n := range views {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&out, "view %s: %d rows\n", n, views[n])
	}
	counters := sys.UDFCounters()
	cnames := make([]string, 0, len(counters))
	for n := range counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		fmt.Fprintf(&out, "udf %s: %+v\n", n, counters[n])
	}
	fmt.Fprintf(&out, "hit%%: %.6f\ntotal simtime: %d\n", sys.HitPercentage(), sys.SimulatedTime())
	writeFaultLog(&out, inj)
	return out.String()
}

// chaosScripts loads every testdata script source.
func chaosScripts(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "scripts", "*.sql"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	srcs := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	return srcs
}

// TestChaosDifferentialMatrix: every script × every seeded fault
// schedule × Workers {1,2,8} — parallel digests must be byte-identical
// to serial. Runs a reduced seed set under -short.
func TestChaosDifferentialMatrix(t *testing.T) {
	seeds := chaosSeeds
	if testing.Short() {
		seeds = 6
	}
	injected := 0
	for name, src := range chaosScripts(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				regime := chaosRegimes[seed%4]
				t.Run(fmt.Sprintf("%s-seed%d", regime, seed), func(t *testing.T) {
					baseline := runChaosDigest(t, src, Config{Workers: 1}, seed, regime)
					injected += strings.Count(baseline, "\nfault ")
					for _, w := range []int{2, 8} {
						got := runChaosDigest(t, src, Config{Workers: w}, seed, regime)
						if got != baseline {
							t.Errorf("workers=%d digest diverged from serial\n%s",
								w, digestDiff(baseline, got))
						}
					}
				})
			}
		})
	}
	if injected == 0 {
		t.Error("chaos matrix injected no faults — schedules are vacuous")
	}
}

// TestFunCacheParallelDifferential: the FunCache baseline — formerly
// pinned serial because its hit/miss accounting was order-sensitive —
// must now produce byte-identical fault-free digests at every worker
// count (per-key singleflight makes eval/store counts and charged miss
// costs order-independent).
func TestFunCacheParallelDifferential(t *testing.T) {
	for name, src := range chaosScripts(t) {
		t.Run(name, func(t *testing.T) {
			baseline := runChaosDigest(t, src, Config{Mode: ModeFunCache, Workers: 1}, 0, "")
			for _, w := range []int{2, 8} {
				got := runChaosDigest(t, src, Config{Mode: ModeFunCache, Workers: w}, 0, "")
				if got != baseline {
					t.Errorf("workers=%d FunCache digest diverged from serial\n%s",
						w, digestDiff(baseline, got))
				}
			}
		})
	}
}

// TestChaosPoolingDifferential extends the pooling invariance of
// TestPoolingDifferential to fault-injected execution: under every
// regime, the pooled runs at Workers {1,2,8} must byte-match the
// unpooled serial run with the same seed — recycled batches cannot
// perturb the injected schedule, retry charges, breaker trips or
// error text. Runs a reduced seed set under -short.
func TestChaosPoolingDifferential(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	injected := 0
	for name, src := range chaosScripts(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				regime := chaosRegimes[seed%4]
				t.Run(fmt.Sprintf("%s-seed%d", regime, seed), func(t *testing.T) {
					baseline := runChaosDigest(t, src,
						Config{Workers: 1, DisablePooling: true}, seed, regime)
					injected += strings.Count(baseline, "\nfault ")
					for _, w := range []int{1, 2, 8} {
						got := runChaosDigest(t, src, Config{Workers: w}, seed, regime)
						if got != baseline {
							t.Errorf("pooled workers=%d digest diverged from unpooled serial\n%s",
								w, digestDiff(baseline, got))
						}
					}
				})
			}
		})
	}
	if injected == 0 {
		t.Error("pooling chaos matrix injected no faults — schedules are vacuous")
	}
}

// TestFunCachePoolingDifferential: pooled FunCache runs must
// byte-match the unpooled serial FunCache baseline — the tuple cache
// retains detector output batches, so this is the regime where a
// recycled batch aliasing cached state would surface first.
func TestFunCachePoolingDifferential(t *testing.T) {
	for name, src := range chaosScripts(t) {
		t.Run(name, func(t *testing.T) {
			baseline := runChaosDigest(t, src,
				Config{Mode: ModeFunCache, Workers: 1, DisablePooling: true}, 0, "")
			for _, w := range []int{1, 2, 8} {
				got := runChaosDigest(t, src, Config{Mode: ModeFunCache, Workers: w}, 0, "")
				if got != baseline {
					t.Errorf("pooled workers=%d FunCache digest diverged from unpooled serial\n%s",
						w, digestDiff(baseline, got))
				}
			}
		})
	}
}

// TestFunCacheFaultSmoke: FunCache under fault injection at Workers=8
// is exempt from the byte-identity matrix — breaker-commit attribution
// among same-identity rows can legitimately vary with the singleflight
// claimant — but it must never panic, must surface only clean wrapped
// errors, and the system must stay usable afterwards.
func TestFunCacheFaultSmoke(t *testing.T) {
	src := chaosScripts(t)["reuse_flow.sql"]
	if src == "" {
		t.Fatal("reuse_flow.sql missing")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		regime := chaosRegimes[seed%4]
		t.Run(regime, func(t *testing.T) {
			sys, err := Open(Config{Dir: t.TempDir(), Mode: ModeFunCache, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			inj := faults.New(seed)
			installRegime(inj, regime, seed)
			sys.InjectFaults(inj)
			stmts, err := parser.ParseAll(src)
			if err != nil {
				t.Fatal(err)
			}
			for i, stmt := range stmts {
				if _, err := sys.ExecStmt(stmt); err != nil &&
					!strings.Contains(err.Error(), "fault") &&
					!strings.Contains(err.Error(), "crash") &&
					!strings.Contains(err.Error(), "deadline") &&
					!strings.Contains(err.Error(), "unavailable") &&
					!strings.Contains(err.Error(), "failed") {
					t.Errorf("statement %d: unclean error under %s faults: %v", i+1, regime, err)
				}
			}
		})
	}
}
