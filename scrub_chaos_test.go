package eva

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"eva/internal/faults"
)

// The scrub chaos matrix is the executable acceptance test for the
// self-healing view storage (DESIGN.md §15): scripts × on-disk
// corruption sites × worker counts, plus crash kill points inside the
// repair pipeline itself. Every cell must converge — after scrub,
// symbolic repair, and one warm re-run — to a digest byte-identical to
// a never-corrupted baseline, and a fresh System reopening the healed
// directory must serve the same state.

// largestViewLog returns the biggest view log — guaranteed to hold
// records past the header, so mid/tail flips land inside record data.
func largestViewLog(t *testing.T, dir string) string {
	t.Helper()
	var best string
	var bestSize int64
	for _, p := range viewLogs(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > bestSize {
			best, bestSize = p, fi.Size()
		}
	}
	return best
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 || off >= int64(len(data)) {
		t.Fatalf("flip offset %d outside %s (%d bytes)", off, path, len(data))
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// scrubSites enumerates the corruption placements of the matrix.
var scrubSites = []string{"header", "mid", "tail", "sidecar"}

// sideFiles are the extensions of the files older versions kept beside a
// view log.
var sideFiles = []string{".clean", ".quar", ".tomb"}

// corruptViewsAt applies one corruption site to the on-disk logs while
// the owning System is live.
func corruptViewsAt(t *testing.T, dir, site string) {
	t.Helper()
	switch site {
	case "header":
		// Rot the magic of every log: total loss across the board.
		for _, p := range viewLogs(t, dir) {
			flipByte(t, p, 1)
		}
	case "mid":
		// One flip deep inside the largest log: an interior record
		// fails its checksum, the suffix re-synchronizes.
		p := largestViewLog(t, dir)
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, fi.Size()/2)
	case "tail":
		// A flip inside the final record's trailing checksum: the torn
		// tail is truncated rather than quarantined.
		p := largestViewLog(t, dir)
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, fi.Size()-5)
	case "sidecar":
		// Garbage where older versions kept side files beside each log (a
		// clean sidecar, a quarantine manifest, an eviction tombstone):
		// nothing reads them and they carry no data, so nothing needs
		// repair — and the next open deletes them.
		for _, p := range viewLogs(t, dir) {
			for _, ext := range sideFiles {
				if err := os.WriteFile(p+ext, []byte("not a side file at all"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	default:
		t.Fatalf("unknown corruption site %q", site)
	}
}

// scrub runs a scrub pass, failing the test if it fails.
func scrub(t *testing.T, sys *System) ScrubReport {
	t.Helper()
	rep, err := sys.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// repair runs the queued repairs, failing the test if that fails.
func repair(t *testing.T, sys *System) RepairReport {
	t.Helper()
	rep, err := sys.Repair()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkHealed runs the script once more on sys and requires the
// untroubled warm run's answers and view content.
func (b untroubled) checkHealed(t *testing.T, what string, sys *System) {
	t.Helper()
	same(t, what+" answers", b.warm, answersOf(t, sys, b.src))
	same(t, what+" view content", b.views, viewContentDigest(sys))
}

// checkNoResidue requires a healed system to scrub clean with no repair
// pending.
func checkNoResidue(t *testing.T, sys *System) {
	t.Helper()
	if rep := scrub(t, sys); len(rep.Findings) != 0 || rep.Quarantined != 0 {
		t.Errorf("residue after repair: %+v", rep)
	}
	if p := sys.PendingRepairs(); len(p) != 0 {
		t.Errorf("repairs still pending: %v", p)
	}
}

// TestScrubCorruptionMatrix: every view-building script × corruption
// site × Workers {1,2,8}. Protocol per cell: run the script, corrupt
// the on-disk logs under the live system, Scrub (detect + quarantine +
// register symbolic repairs), Repair (recompute id-granular holes,
// compact), re-run the script (lazily heals non-id-keyed views), and
// require both the statement output and the view content digest to
// byte-match the pristine baseline — then reopen the directory in a
// fresh System and require the same once more.
func TestScrubCorruptionMatrix(t *testing.T) {
	workerSet := []int{1, 2, 8}
	if testing.Short() {
		workerSet = []int{2}
	}
	eachScript(t, func(t *testing.T, sc script) {
		b := runUntroubled(t, sc.src)
		for _, site := range scrubSites {
			for _, w := range workerSet {
				t.Run(fmt.Sprintf("%s-w%d", site, w), func(t *testing.T) {
					dir := t.TempDir()
					sys := openAt(t, Config{Dir: dir, Workers: w})
					answersOf(t, sys, sc.src)
					corruptViewsAt(t, dir, site)
					rep := scrub(t, sys)
					if site == "sidecar" {
						// The scrub reads the logs alone: a garbage side
						// file is not corruption.
						if len(rep.Findings) != 0 {
							t.Fatalf("side-file garbage produced findings: %+v", rep.Findings)
						}
					} else if len(rep.Findings) == 0 {
						t.Fatalf("scrub missed %s corruption", site)
					}
					repair(t, sys)
					b.checkHealed(t, "post-repair", sys)
					checkNoResidue(t, sys)
					closeOK(t, sys)
					b.checkReopened(t, dir, w)
				})
			}
		}
	}, viewScripts...)
}

// TestRepairCrashKillPoints: a crash at each stage of the repair
// pipeline — between range recomputations (view:repair), inside the
// re-append (view:write), and inside generational compaction
// (view:compact) — must leave the view recoverable: the old state
// stays authoritative, repair is idempotent, and a retry (in-process
// or after a full restart) converges to the pristine baseline.
func TestRepairCrashKillPoints(t *testing.T) {
	b := runUntroubled(t, scriptSrc(t, "reuse_flow.sql"))
	kills := []struct {
		name string
		site string
		rule faults.Rule
	}{
		{"repair-step", faults.SiteViewRepairAny, faults.Rule{Kind: faults.Crash, At: []int{1}, Limit: 1}},
		{"reappend-write", faults.SiteViewWriteAny, faults.Rule{Kind: faults.Crash, At: []int{1}, Limit: 1, ShortWrite: 7}},
		{"compact-commit", faults.SiteViewCompactAny, faults.Rule{Kind: faults.Crash, At: []int{1}, Limit: 1, ShortWrite: 9}},
	}
	for _, kp := range kills {
		t.Run(kp.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := openAt(t, Config{Dir: dir, Workers: 2})
			answersOf(t, sys, b.src)
			corruptViewsAt(t, dir, "mid")
			inj := faults.New(1)
			inj.Rule(kp.site, kp.rule)
			sys.injectFaults(inj)
			scrub(t, sys)
			crashed := false
			for _, r := range repair(t, sys).Records {
				if r.Err != "" {
					crashed = true
					if !strings.Contains(r.Err, "crash") {
						t.Errorf("kill point surfaced unclean error: %s", r.Err)
					}
				}
			}
			if !crashed {
				t.Fatal("kill point did not fire — the schedule is vacuous")
			}

			if kp.name == "repair-step" {
				// The inter-range kill point leaves the view alive and
				// the task queued: an in-process retry must converge
				// without a restart.
				if p := sys.PendingRepairs(); len(p) == 0 {
					t.Fatal("crashed repair dropped its task")
				}
				sys.injectFaults(faults.New(0))
				repair(t, sys)
				b.checkHealed(t, "in-process retry", sys)
			}
			closeOK(t, sys)

			// Restart over the crashed directory: the old generation (or
			// salvaged log) is authoritative, orphan scratch files are
			// discarded, and scrub + repair + one warm run converge.
			sys = openAt(t, Config{Dir: dir, Workers: 2})
			answersOf(t, sys, b.src)
			scrub(t, sys)
			repair(t, sys)
			b.checkHealed(t, "post-restart", sys)
			checkNoResidue(t, sys)
		})
	}
}

// TestRepairRecomputesInteriorHole: an interior corruption in an
// id-keyed view is healed by System.Repair *alone* — the survived-id
// residual bounds the hole, the synthesized range query recomputes
// exactly the lost keys, and no user query needs to run again.
func TestRepairRecomputesInteriorHole(t *testing.T) {
	b := runUntroubled(t, scriptSrc(t, "groupby_agg.sql"))
	dir := t.TempDir()
	sys := openAt(t, Config{Dir: dir, Workers: 1})
	answersOf(t, sys, b.src)
	corruptViewsAt(t, dir, "mid")
	if rep := scrub(t, sys); len(rep.Findings) == 0 {
		t.Fatal("scrub missed the interior corruption")
	}
	if p := sys.PendingRepairs(); len(p) == 0 {
		t.Fatal("no symbolic repair was registered")
	}
	repaired := 0
	for _, r := range repair(t, sys).Records {
		if r.Err != "" {
			t.Errorf("repair %s failed: %s", r.View, r.Err)
		}
		if r.Ranges > 0 && r.RowsAfter > r.RowsBefore {
			repaired++
		}
		if !r.Compacted {
			t.Errorf("repair %s did not compact", r.View)
		}
	}
	if repaired == 0 {
		t.Error("no view regained rows from the synthesized range queries")
	}
	same(t, "repair-only healing view content", b.views, viewContentDigest(sys))
}

// TestBackgroundScrubberHeals: with ScrubInterval set, corruption is
// found by the periodic scrub pass off the virtual clock — no explicit
// Scrub call — and queued for repair by the time the statement whose
// boundary made the pass due returns.
func TestBackgroundScrubberHeals(t *testing.T) {
	b := runUntroubled(t, scriptSrc(t, "groupby_agg.sql"))
	dir := t.TempDir()
	sys := openAt(t, Config{Dir: dir, Workers: 2, ScrubInterval: time.Nanosecond})
	answersOf(t, sys, b.src)
	corruptViewsAt(t, dir, "mid")
	answersOf(t, sys, b.src)
	// One pass per SELECT boundary (a LOAD charges no virtual time, so
	// it never crosses even a 1ns cadence); the second finds the rot.
	if st := sys.StorageStats().Scrub; st != (ScrubberStats{Passes: 2}) {
		t.Errorf("scrub cadence = %+v, want one pass per SELECT", st)
	}
	if len(sys.PendingRepairs()) == 0 {
		t.Fatal("the scrub pass did not queue the corruption for repair")
	}
	repair(t, sys)
	b.checkHealed(t, "post-heal", sys)
}

// sessionOnlySystem opens a system and runs statements through a
// client Session only — cold detector evaluations, so every statement
// advances the virtual clock far past a millisecond cadence and the
// two detectors leave two views for the evictor to choose between.
func sessionOnlySystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys := openLoaded(t, cfg)
	sess := sys.NewSession()
	for _, q := range []string{
		`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 120`,
		`SELECT id, label FROM video CROSS APPLY YoloTiny(frame) WHERE id < 120`,
		`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200 AND label = 'car'`,
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestSessionStatementsDriveScrubber: statements that only ever run
// through a client Session must advance the scrub cadence like
// System.Exec does. Each of sessionOnlySystem's three statements
// advances the virtual clock past the 1ms interval, so each boundary
// runs one pass. (Regression: only System.ExecStmt nudged, so a served
// system never scrubbed.)
func TestSessionStatementsDriveScrubber(t *testing.T) {
	sys := sessionOnlySystem(t, Config{ScrubInterval: time.Millisecond})
	if st := sys.StorageStats().Scrub; st != (ScrubberStats{Passes: 3}) {
		t.Fatalf("scrub cadence after three session statements = %+v, want 3 passes", st)
	}
}

// TestScrubDegradesAtBoundary: the degrade is decided at the statement
// boundary. A client statement parked in a blocking UDF holds one of
// two tokens, so the root statement that makes a pass due defers it
// rather than wait for the client; the client's own boundary then runs
// the deferred pass.
func TestScrubDegradesAtBoundary(t *testing.T) {
	sys := openLoaded(t, Config{MaxConcurrent: 2, ScrubInterval: time.Millisecond})
	started, release := blockingUDF(t, sys)
	done := make(chan error, 1)
	go func() {
		_, err := sys.NewSession().Exec(gateQuery)
		done <- err
	}()
	<-started
	if _, err := sys.Exec(`SELECT id, label FROM video CROSS APPLY YoloTiny(frame) WHERE id < 20`); err != nil {
		t.Fatal(err)
	}
	if st := sys.StorageStats().Scrub; st != (ScrubberStats{Degraded: 1}) {
		t.Errorf("scrub cadence after the root statement = %+v, want one degrade", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := sys.StorageStats().Scrub; st != (ScrubberStats{Passes: 1, Degraded: 1}) {
		t.Errorf("scrub cadence after the client statement = %+v, want the deferred pass", st)
	}
}
