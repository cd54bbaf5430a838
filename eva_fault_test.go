package eva

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eva/internal/faults"
	"eva/internal/storage"
	"eva/internal/vision"
)

// sweepWorkload is the query mix replayed under every fault schedule:
// a logical-UDF query (degradable across physical models), two
// physical-model queries that overlap (exercising view reuse and the
// set cover), a predicate UDF, and a partially covered range.
var sweepWorkload = []string{
	`SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 120 AND label = 'car'`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200`,
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 260 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`,
	`SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id >= 60 AND id < 180`,
}

// runSweepWorkload executes the workload, returning per-query row
// counts (-1 for a failed query) and errors.
func runSweepWorkload(t *testing.T, sys *System) ([]int, []error) {
	t.Helper()
	rows := make([]int, len(sweepWorkload))
	errs := make([]error, len(sweepWorkload))
	for i, q := range sweepWorkload {
		res, err := sys.Exec(q)
		if err != nil {
			rows[i], errs[i] = -1, err
			continue
		}
		rows[i] = res.Rows.Len()
	}
	return rows, errs
}

// TestFaultSweep replays the workload under 24 deterministic fault
// schedules spanning four regimes. The resilience contract:
//
//   - transient regimes must be fully absorbed by retry — results
//     byte-equal to the fault-free baseline;
//   - permanent model faults must degrade to a fallback model, never
//     fail the query;
//   - storage crash faults may fail queries, but only with clean
//     wrapped errors, and the on-disk views must reopen uncorrupted;
//   - injected deadline expiry must surface as ErrDeadlineExceeded.
//
// Nothing may panic anywhere in the sweep.
func TestFaultSweep(t *testing.T) {
	base := openLoaded(t, Config{Workers: 1})
	baseRows, baseErrs := runSweepWorkload(t, base)
	for i, err := range baseErrs {
		if err != nil {
			t.Fatalf("baseline query %d failed: %v", i, err)
		}
	}
	baseViews := base.ViewRows()

	// The sweep runs once serial and once at Workers=8. Fault decisions
	// are pure functions of (seed, site, call identity) — not draws
	// from a shared stream — so the injected schedule, every outcome
	// and the final view state must be identical at any worker setting;
	// TestChaosDifferentialMatrix checks the byte-level version of this
	// claim over the testdata scripts.
	const seeds = 24
	injected := injections{}
	for _, workers := range []int{1, 8} {
		for seed := uint64(1); seed <= seeds; seed++ {
			s := seeded(seed)
			regime := s.regime
			t.Run(fmt.Sprintf("workers%d/%s", workers, s.name()), func(t *testing.T) {
				dir := t.TempDir()
				sys := openLoaded(t, Config{Dir: dir, Workers: workers})
				inj := s.injector()
				sys.InjectFaults(inj)

				rows, errs := runSweepWorkload(t, sys)

				switch regime {
				case "transient":
					// Retry must absorb every transient fault: identical
					// results, identical materialized state.
					for i, err := range errs {
						if err != nil {
							t.Errorf("query %d failed under transient faults: %v", i, err)
						} else if rows[i] != baseRows[i] {
							t.Errorf("query %d rows = %d, baseline %d", i, rows[i], baseRows[i])
						}
					}
					views := sys.ViewRows()
					if len(views) != len(baseViews) {
						t.Errorf("views = %v, baseline %v", views, baseViews)
					}
					for name, n := range baseViews {
						if views[name] != n {
							t.Errorf("view %s rows = %d, baseline %d", name, views[name], n)
						}
					}
				case "permanent":
					// The logical queries degrade to FasterRCNN50; the
					// explicitly bound queries never touch YoloTiny.
					for i, err := range errs {
						if err != nil {
							t.Errorf("query %d did not degrade: %v", i, err)
						}
					}
					if res, err := sys.Exec(sweepWorkload[0]); err != nil {
						t.Errorf("post-trip logical query failed: %v", err)
					} else if res.Report.DetectorEval != vision.FasterRCNN50 {
						t.Errorf("degraded eval = %s, want %s", res.Report.DetectorEval, vision.FasterRCNN50)
					}
				case "crash":
					// Queries may fail, but only with a clean error that
					// carries the injected fault or the dead-view refusal.
					for i, err := range errs {
						if err == nil {
							continue
						}
						if _, ok := faults.AsFault(err); !ok &&
							!strings.Contains(err.Error(), "simulated crash") {
							t.Errorf("query %d unclean error: %v", i, err)
						}
					}
					// Reopening the storage directory must replay every
					// view log without error (torn tails truncate cleanly).
					re, err := storage.Open(dir)
					if err != nil {
						t.Fatalf("reopen after crash faults: %v", err)
					}
					for _, name := range re.Views() {
						if v := re.View(name); v.Rows() < 0 {
							t.Errorf("view %s corrupt after reopen", name)
						}
					}
				case "deadline":
					hits := 0
					for i, err := range errs {
						if err == nil {
							continue
						}
						if !errors.Is(err, ErrDeadlineExceeded) {
							t.Errorf("query %d error = %v, want deadline expiry", i, err)
						}
						_ = i
						hits++
					}
					if hits != 1 {
						t.Errorf("deadline fault killed %d queries, want exactly 1", hits)
					}
				}
				injected[regime] += inj.Injected()
			})
		}
	}
	injected.requireEach(t)
}

// TestQueryDeadlineConfig drives Config.QueryDeadline through the
// public API: a tiny simulated budget aborts the scan cleanly, and the
// same query completes once the budget is lifted.
func TestQueryDeadlineConfig(t *testing.T) {
	sys, err := Open(Config{Dir: t.TempDir(), QueryDeadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Exec(`SELECT id FROM video WHERE id < 500`)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	sys.eng.Deadline = 0
	res, err := sys.Exec(`SELECT id FROM video WHERE id < 500`)
	if err != nil || res.Rows.Len() != 500 {
		t.Fatalf("unlimited rerun: %v rows, err %v", res, err)
	}
}
