package eva

import (
	"fmt"
	"testing"
	"time"

	"eva/internal/faults"
	"eva/internal/testutil"
)

// The evict chaos matrix is the executable acceptance test for
// disk-pressure survival (DESIGN.md §16): view-building scripts ×
// storage-budget levels × injected ENOSPC schedules × worker counts.
// Every cell must produce statement output byte-identical to an
// unconstrained baseline — no query may fail out-of-space while an
// evictable view remains, because the evict-retry ladder reclaims and
// retries behind the scenes — and a reopen of the pressured directory
// must find one file per view, no zombies, and converge back to baseline.
// (View row counts and simtime are deliberately outside the digest:
// eviction legitimately empties cold caches and charges retry backoff;
// it must never change what a query returns.)

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
	eachScript(t, func(t *testing.T, sc script) {
		b := runUntroubled(t, sc.src)
		levels := []struct {
			name  string
			bytes int64
		}{
			{"roomy", b.viewBytes * 2},
			{"snug", b.viewBytes + 512},
			// Tight must always admit the largest single view plus an
			// append's worth of slack — below that, ErrDiskBudget is
			// legitimate. For single-dominant-view scripts this ends up
			// above the charged total (nothing to deny); multi-view
			// scripts land below it and force the full reclaim ladder.
			{"tight", b.largestViewBytes + b.largestViewBytes/2 + 512},
		}
		for _, level := range levels {
			for _, sched := range schedules {
				for _, w := range workerSet {
					t.Run(fmt.Sprintf("%s-%s-w%d", level.name, sched.name, w), func(t *testing.T) {
						dir := t.TempDir()
						sys := openAt(t, Config{Dir: dir, Workers: w, DiskBudgetBytes: level.bytes})
						var inj *faults.Injector
						if sched.rule != nil {
							inj = faults.New(0xD15C)
							inj.Rule(faults.SiteDiskFullAny, *sched.rule)
							sys.injectFaults(inj)
						}
						same(t, "cold answers under disk pressure", b.cold, answersOf(t, sys, sc.src))
						same(t, "warm answers under disk pressure", b.warm, answersOf(t, sys, sc.src))
						st := sys.StorageStats()
						if st.Disk.LimitBytes != level.bytes {
							t.Errorf("budget limit %d, configured %d", st.Disk.LimitBytes, level.bytes)
						}
						evictions += st.Disk.Evictions
						denials += st.Disk.Denials
						injected += int64(inj.Injected())
						closeOK(t, sys)
						testutil.CheckOneFilePerView(t, dir)
						// Reopen unconstrained: no zombies, and one run
						// re-materializes anything evicted back to the
						// pristine baseline — content included.
						b.checkReopened(t, dir, w)
					})
				}
			}
		}
	}, viewScripts...)
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
// session's views end above the 90% high-water mark, the evict cadence
// — advanced by Session statements alone — must run and reclaim below
// it. Each of the three statements makes a pass due; only the third
// ends above high water, and its pass evicts the lower-benefit YoloTiny
// view, which brings usage under the 70% target. (Regression: only
// System.ExecStmt nudged.)
func TestSessionStatementsDriveEvictor(t *testing.T) {
	const yolo = "udf_video_yolotiny_frame"
	roomy := sessionOnlySystem(t, Config{DiskBudgetBytes: 1 << 40})
	used := roomy.StorageStats().Disk.UsedBytes
	if used == 0 {
		t.Fatal("roomy run charged no durable bytes")
	}
	// used is 95% of the limit: every append fits (no synchronous
	// eviction), and the finished session sits above high water.
	limit := used * 100 / 95
	sys := sessionOnlySystem(t, Config{DiskBudgetBytes: limit, EvictInterval: time.Millisecond})
	sys.maintMu.Lock()
	ev := sys.evict.ScrubStats
	sys.maintMu.Unlock()
	if ev != (ScrubberStats{Passes: 3}) {
		t.Errorf("evict cadence after three session statements = %+v, want 3 passes", ev)
	}
	st := sys.StorageStats().Disk
	if st.Evictions != 1 || sys.ViewRows()[yolo] != 0 {
		t.Fatalf("evictions = %d, %s rows = %d: want the one YoloTiny view evicted", st.Evictions, yolo, sys.ViewRows()[yolo])
	}
	want := used - roomy.store.View(yolo).Footprint() + sys.store.View(yolo).Footprint()
	if st.UsedBytes != want || st.UsedBytes > limit/10*7 {
		t.Errorf("used bytes after the reclaim = %d, want %d (at most 70%% of %d)", st.UsedBytes, want, limit)
	}
}
