package eva

import (
	"fmt"
	"testing"
)

// The differential serial-vs-parallel matrix: every testdata script runs
// under the {Workers} × {BatchSize} matrix, and every parallel cell must
// produce a byte-identical digest — result rows, optimizer reports,
// per-category virtual-time breakdowns, materialized view row counts and
// reuse counters — to the serial (Workers=1) baseline at the same batch
// size. Workers=0, the default, is GOMAXPROCS workers. This is the
// engine's determinism contract (DESIGN.md §10) made executable:
// parallelism may only change wall-clock time, never anything
// observable.

// TestDifferentialMatrix asserts the determinism contract over every
// testdata script and every matrix cell.
func TestDifferentialMatrix(t *testing.T) {
	eachScript(t, func(t *testing.T, sc script) {
		for _, bs := range []int{1, 7, 256} {
			matrix(t, sc.run(schedule{}), Config{Workers: 1, BatchSize: bs},
				atWorkers(Config{BatchSize: bs}, fmt.Sprintf("workers%%d-batch%d", bs), 0, 2, 8))
		}
	})
}

// TestPoolingDifferential asserts the pooled-batch lifecycle is
// observationally invisible (DESIGN.md §13): for every script, the
// unpooled serial run and the pooled runs at Workers {0,1,2,8} produce
// byte-identical digests — rows, reports, view state, counters and
// virtual-clock totals. Recycling may only change allocation traffic,
// never anything a client can see.
func TestPoolingDifferential(t *testing.T) {
	eachScript(t, func(t *testing.T, sc script) {
		for _, bs := range []int{7, 256} {
			matrix(t, sc.run(schedule{}), Config{Workers: 1, BatchSize: bs, DisablePooling: true},
				atWorkers(Config{BatchSize: bs}, fmt.Sprintf("pooled-workers%%d-batch%d", bs), 0, 1, 2, 8))
		}
	})
}

// run is the matrix runner of the script under sched: a fresh System
// per Config, digested by runScript.
func (sc script) run(sched schedule) func(*testing.T, Config) string {
	return func(t *testing.T, cfg Config) string { return runScript(t, cfg, sc.src, sched) }
}
