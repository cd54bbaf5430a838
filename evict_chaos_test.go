package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eva/internal/faults"
)

// The evict chaos matrix is the executable acceptance test for
// disk-pressure survival (DESIGN.md §16): view-building scripts ×
// storage-budget levels × injected ENOSPC schedules × worker counts.
// Every cell must produce statement output byte-identical to an
// unconstrained baseline — no query may fail out-of-space while an
// evictable view remains, because the evict-retry ladder reclaims and
// retries behind the scenes — and a reopen of the pressured directory
// must find no tombstones, no zombies, and converge back to baseline.
// (View row counts and simtime are deliberately outside the digest:
// eviction legitimately empties cold caches and charges retry backoff;
// it must never change what a query returns.)

// measureFootprint runs the script twice in a pristine system and
// returns the budget-charged bytes (view logs + sidecars — dataset
// files are not charged) and the largest single view log — the inputs
// for sizing the budget levels.
func measureFootprint(t *testing.T, src string) (total, largest int64) {
	t.Helper()
	dir := t.TempDir()
	sys, err := Open(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runScriptOut(t, sys, src)
	runScriptOut(t, sys, src)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "views", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		if filepath.Ext(p) == ".view" && fi.Size() > largest {
			largest = fi.Size()
		}
	}
	if total == 0 || largest == 0 {
		t.Fatalf("script left no durable views to pressure (total=%d largest=%d)", total, largest)
	}
	return total, largest
}

// noTombstones fails if any eviction tombstone survived under dir —
// a completed eviction clears its tombstone, and reopen clears the
// rest; one left behind after Close means a half-finished eviction
// escaped both paths.
func noTombstones(t *testing.T, dir string) {
	t.Helper()
	tombs, err := filepath.Glob(filepath.Join(dir, "views", "*.tomb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tombs) != 0 {
		t.Errorf("tombstones survived the run: %v", tombs)
	}
}

// TestEvictChaosMatrix: scripts × budget levels × ENOSPC schedules ×
// Workers {1,2,8}. "roomy" holds everything (eviction never needed),
// "snug" barely holds everything (close-time artifacts may force
// reclaim), "tight" cannot hold all views at once (eviction is the
// only way through) but always admits the largest single view, so the
// typed ErrDiskBudget must never surface. The ENOSPC schedules add
// injected disk-full faults on top: transient shortages — with and
// without short writes — that the evict-retry loop must drain without
// a trace in the output.
func TestEvictChaosMatrix(t *testing.T) {
	workerSet := []int{1, 2, 8}
	if testing.Short() {
		workerSet = []int{2}
	}
	schedules := []struct {
		name string
		rule *faults.Rule
	}{
		{"clean", nil},
		{"enospc", &faults.Rule{Kind: faults.Transient, At: []int{1, 3}}},
		{"enospc-short", &faults.Rule{Kind: faults.Transient, At: []int{2, 4}, ShortWrite: 7}},
	}
	var evictions, denials, injected int64
	srcs := chaosScripts(t)
	for _, script := range scrubScripts {
		src := srcs[script]
		if src == "" {
			t.Fatalf("script %s missing", script)
		}
		t.Run(script, func(t *testing.T) {
			coldOut, warmOut, reopenOut, wantViews := scrubBaseline(t, src)
			total, largest := measureFootprint(t, src)
			levels := []struct {
				name  string
				bytes int64
			}{
				{"roomy", total * 2},
				{"snug", total + 512},
				// Tight must always admit the largest single view plus an
				// append's worth of slack — below that, ErrDiskBudget is
				// legitimate. For single-dominant-view scripts this ends up
				// above the charged total (nothing to deny); multi-view
				// scripts land below it and force the full reclaim ladder.
				{"tight", largest + largest/2 + 512},
			}
			for _, level := range levels {
				for _, sched := range schedules {
					for _, w := range workerSet {
						t.Run(fmt.Sprintf("%s-%s-w%d", level.name, sched.name, w), func(t *testing.T) {
							dir := t.TempDir()
							sys, err := Open(Config{Dir: dir, Workers: w, DiskBudgetBytes: level.bytes})
							if err != nil {
								t.Fatal(err)
							}
							defer sys.Close()
							var inj *faults.Injector
							if sched.rule != nil {
								inj = faults.New(0xD15C)
								inj.Rule(faults.SiteDiskFullAny, *sched.rule)
								sys.InjectFaults(inj)
							}

							if got := runScriptOut(t, sys, src); got != coldOut {
								t.Errorf("cold output diverged under disk pressure\n%s",
									digestDiff(coldOut, got))
							}
							if got := runScriptOut(t, sys, src); got != warmOut {
								t.Errorf("warm output diverged under disk pressure\n%s",
									digestDiff(warmOut, got))
							}
							st := sys.StorageStats()
							if st.Disk.LimitBytes != level.bytes {
								t.Errorf("budget limit %d, configured %d", st.Disk.LimitBytes, level.bytes)
							}
							evictions += st.Disk.Evictions
							denials += st.Disk.Denials
							if inj != nil {
								injected += int64(inj.Injected())
							}
							if err := sys.Close(); err != nil {
								t.Fatal(err)
							}
							noTombstones(t, dir)

							// Reopen unconstrained: no zombies, and one run
							// re-materializes anything evicted back to the
							// pristine baseline — content included.
							sys2, err := Open(Config{Dir: dir, Workers: w})
							if err != nil {
								t.Fatal(err)
							}
							defer sys2.Close()
							if got := runScriptOut(t, sys2, src); got != reopenOut {
								t.Errorf("reopened output diverged\n%s", digestDiff(reopenOut, got))
							}
							if got := viewContentDigest(sys2); got != wantViews {
								t.Errorf("reopened view content diverged\n%s", digestDiff(wantViews, got))
							}
						})
					}
				}
			}
		})
	}
	if evictions == 0 {
		t.Error("no cell evicted a view — the tight budget level is vacuous")
	}
	if denials == 0 {
		t.Error("no cell recorded a budget denial — the matrix never hit the limit")
	}
	if injected == 0 {
		t.Error("ENOSPC schedules injected nothing — the fault rules are vacuous")
	}
}

// TestSessionStatementsDriveEvictor: with the disk budget sized so the
// session's views end above the 90% high-water mark, the background
// evictor — nudged by Session statements alone — must run and reclaim
// below it. (Regression: only System.ExecStmt nudged.)
func TestSessionStatementsDriveEvictor(t *testing.T) {
	used := sessionOnlySystem(t, Config{DiskBudgetBytes: 1 << 40}).StorageStats().Disk.UsedBytes
	if used == 0 {
		t.Fatal("roomy run charged no durable bytes")
	}
	// used is 95% of the limit: every append fits (no synchronous
	// eviction), and the finished session sits above high water.
	limit := used * 100 / 95
	sys := sessionOnlySystem(t, Config{DiskBudgetBytes: limit, EvictInterval: time.Millisecond})
	awaitBackground(t, "background reclaim below high water after session statements", func() bool {
		return sys.evictor.Stats().Passes >= 1 && sys.StorageStats().Disk.UsedBytes <= limit/10*9
	})
	// The ledger shrinks inside the eviction and the counter moves after
	// it, so the count may trail the bytes by a moment.
	awaitBackground(t, "the reclaim being counted as a view eviction", func() bool {
		return sys.StorageStats().Disk.Evictions > 0
	})
}
