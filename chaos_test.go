package eva

import (
	"strings"
	"testing"
)

// The chaos differential matrix extends the serial-vs-parallel matrix
// of differential_test.go to fault-injected execution: every testdata
// script runs under seeded fault schedules spanning all four regimes
// (faults.Regimes: transient, permanent, crash, deadline), and every
// parallel cell must produce a byte-identical digest — including
// per-statement errors, the canonical injected-fault event log,
// materialized view state and virtual-clock totals — to the serial run
// with the same seed. This is the executable proof that unpinning the
// parallel engine under fault injection (call-identity-keyed decisions,
// frozen breaker snapshots, serial-order outcome commits) preserved the
// determinism contract.

// chaosMatrix runs every script under seeds seeded schedules (short
// of them under -short), each in a subtest that runs base once and
// then every cell, and fails if a regime's schedules injected no fault.
func chaosMatrix(t *testing.T, seeds, short int, base Config, cells []cell) {
	if testing.Short() {
		seeds = short
	}
	injected := injections{}
	eachScript(t, func(t *testing.T, sc script) {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			s := seeded(seed)
			t.Run(s.name(), func(t *testing.T) {
				injected[s.regime] += faultsIn(matrix(t, sc.run(s), base, cells))
			})
		}
	})
	injected.requireEach(t)
}

// TestChaosDifferentialMatrix: every script × 24 seeded fault schedules
// × Workers {1,2,8} — parallel digests must be byte-identical to serial.
func TestChaosDifferentialMatrix(t *testing.T) {
	chaosMatrix(t, 24, 6, Config{Workers: 1}, atWorkers(Config{}, "", 2, 8))
}

// TestChaosPoolingDifferential extends the pooling invariance of
// TestPoolingDifferential to fault-injected execution: under every
// regime, the pooled runs at Workers {1,2,8} must byte-match the
// unpooled serial run with the same seed — recycled batches cannot
// perturb the injected schedule, retry charges, breaker trips or
// error text.
func TestChaosPoolingDifferential(t *testing.T) {
	chaosMatrix(t, 8, 4, Config{Workers: 1, DisablePooling: true}, atWorkers(Config{}, "", 1, 2, 8))
}

// TestFunCacheParallelDifferential: the FunCache baseline — formerly
// pinned serial because its hit/miss accounting was order-sensitive —
// must now produce byte-identical fault-free digests at every worker
// count (per-key singleflight makes eval/store counts and charged miss
// costs order-independent).
func TestFunCacheParallelDifferential(t *testing.T) {
	eachScript(t, func(t *testing.T, sc script) {
		matrix(t, sc.run(schedule{}), Config{Mode: ModeFunCache, Workers: 1},
			atWorkers(Config{Mode: ModeFunCache}, "", 2, 8))
	})
}

// TestFunCachePoolingDifferential: pooled FunCache runs must
// byte-match the unpooled serial FunCache baseline — the tuple cache
// retains detector output batches, so this is the regime where a
// recycled batch aliasing cached state would surface first.
func TestFunCachePoolingDifferential(t *testing.T) {
	eachScript(t, func(t *testing.T, sc script) {
		matrix(t, sc.run(schedule{}), Config{Mode: ModeFunCache, Workers: 1, DisablePooling: true},
			atWorkers(Config{Mode: ModeFunCache}, "", 1, 2, 8))
	})
}

// TestFunCacheFaultSmoke: FunCache under fault injection at Workers=8
// is exempt from the byte-identity matrix — breaker-commit attribution
// among same-identity rows can legitimately vary with the singleflight
// claimant — but it must never panic, must surface only clean wrapped
// errors, and the system must stay usable afterwards.
func TestFunCacheFaultSmoke(t *testing.T) {
	src := scriptSrc(t, "reuse_flow.sql")
	for seed := uint64(1); seed <= 4; seed++ {
		s := seeded(seed)
		t.Run(s.regime, func(t *testing.T) {
			sys := openAt(t, Config{Mode: ModeFunCache, Workers: 8})
			sys.injectFaults(s.injector())
			out, _ := runStatements(t, sys, src, answers)
			for _, line := range strings.Split(out, "\n") {
				msg, failed := strings.CutPrefix(line, "error: ")
				if failed && !strings.Contains(msg, "fault") && !strings.Contains(msg, "crash") &&
					!strings.Contains(msg, "deadline") && !strings.Contains(msg, "unavailable") &&
					!strings.Contains(msg, "failed") {
					t.Errorf("unclean error under %s faults: %s", s.regime, msg)
				}
			}
		})
	}
}
