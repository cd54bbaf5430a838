package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"eva/internal/faults"
	"eva/internal/parser"
)

// The scrub chaos matrix is the executable acceptance test for the
// self-healing view storage (DESIGN.md §15): scripts × on-disk
// corruption sites × worker counts, plus crash kill points inside the
// repair pipeline itself. Every cell must converge — after scrub,
// symbolic repair, and one warm re-run — to a digest byte-identical to
// a never-corrupted baseline, and a fresh System reopening the healed
// directory must serve the same state.

// scrubScripts is the subset of testdata scripts that materialize
// views (basic_select builds none, so there is nothing to corrupt).
var scrubScripts = []string{"reuse_flow.sql", "logical_udf.sql", "groupby_agg.sql"}

// runScriptOut executes the script and returns the per-statement row
// output (errors included — they must be deterministic too). Report,
// timing and counter noise is deliberately excluded: post-repair runs
// legitimately differ in reuse accounting, but never in results.
func runScriptOut(t *testing.T, sys *System, src string) string {
	t.Helper()
	stmts, err := parser.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for i, stmt := range stmts {
		res, err := sys.ExecStmt(stmt)
		fmt.Fprintf(&out, "== statement %d ==\n", i+1)
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			continue
		}
		if res.Rows != nil && len(res.Rows.Schema()) > 0 {
			out.WriteString(Format(res.Rows))
		}
	}
	return out.String()
}

// viewContentDigest captures every open view's logical content: row
// and processed-key counts plus the formatted rows in sorted order.
// Log order is excluded on purpose — repair re-appends lost rows at
// the tail and compaction rewrites the log, so physical order may
// differ from the baseline while content must not.
func viewContentDigest(sys *System) string {
	names := sys.store.Views()
	sort.Strings(names)
	var out strings.Builder
	for _, n := range names {
		v := sys.store.View(n)
		if v == nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(Format(v.Scan()), "\n"), "\n")
		sort.Strings(lines)
		fmt.Fprintf(&out, "view %s: rows=%d processed=%d\n%s\n",
			n, v.Rows(), v.ProcessedCount(), strings.Join(lines, "\n"))
	}
	return out.String()
}

// viewLogs returns the on-disk view log paths under dir, sorted.
func viewLogs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no view logs under %s: %v", dir, err)
	}
	sort.Strings(paths)
	return paths
}

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
		// Garbage clean-sidecars: they must be rejected, never trusted
		// — and they carry no data, so nothing needs repair.
		for _, p := range viewLogs(t, dir) {
			if err := os.WriteFile(p+".clean", []byte("not a sidecar at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unknown corruption site %q", site)
	}
}

// scrubBaseline runs the script on a pristine system and captures the
// convergence targets: the cold (first-run) and warm (second-run)
// statement outputs and the view content digest, then closes it and
// captures what a system reopened over the same directory answers. A
// restart is invisible to reuse — the aggregated predicates are durable
// in the view logs — so reopenOut is warmOut except for catalog side
// effects: a warm LOAD errors on the existing table, a reopened one
// succeeds. (For a logical UDF that matters: which physical model's
// view serves a statement depends on the predicates.) Corrupted cells
// compare warm re-runs against warmOut and fresh reopened systems
// against reopenOut; coldOut is what a first run answers.
func scrubBaseline(t *testing.T, src string) (coldOut, warmOut, reopenOut, views string) {
	t.Helper()
	dir := t.TempDir()
	sys, err := Open(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	coldOut = runScriptOut(t, sys, src)
	warmOut = runScriptOut(t, sys, src)
	views = viewContentDigest(sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := Open(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	return coldOut, warmOut, runScriptOut(t, sys2, src), views
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
	srcs := chaosScripts(t)
	for _, script := range scrubScripts {
		src := srcs[script]
		if src == "" {
			t.Fatalf("script %s missing", script)
		}
		t.Run(script, func(t *testing.T) {
			_, wantOut, reopenOut, wantViews := scrubBaseline(t, src)
			for _, site := range scrubSites {
				for _, w := range workerSet {
					t.Run(fmt.Sprintf("%s-w%d", site, w), func(t *testing.T) {
						dir := t.TempDir()
						sys, err := Open(Config{Dir: dir, Workers: w})
						if err != nil {
							t.Fatal(err)
						}
						defer sys.Close()
						runScriptOut(t, sys, src)
						corruptViewsAt(t, dir, site)

						rep, err := sys.Scrub()
						if err != nil {
							t.Fatal(err)
						}
						if site == "sidecar" {
							// The scrub ignores sidecar hints entirely — a
							// garbage sidecar is not corruption, just a hint
							// the next open must reject.
							if len(rep.Findings) != 0 {
								t.Fatalf("sidecar garbage produced findings: %+v", rep.Findings)
							}
						} else if len(rep.Findings) == 0 {
							t.Fatalf("scrub missed %s corruption", site)
						}

						if _, err := sys.Repair(); err != nil {
							t.Fatal(err)
						}
						if got := runScriptOut(t, sys, src); got != wantOut {
							t.Errorf("post-repair output diverged from baseline\n%s",
								digestDiff(wantOut, got))
						}
						if got := viewContentDigest(sys); got != wantViews {
							t.Errorf("post-repair view content diverged\n%s",
								digestDiff(wantViews, got))
						}
						// The healed system carries no residue: a second
						// scrub is clean and no repairs are pending.
						rep2, err := sys.Scrub()
						if err != nil {
							t.Fatal(err)
						}
						if len(rep2.Findings) != 0 || rep2.Quarantined != 0 {
							t.Errorf("residue after repair: %+v", rep2)
						}
						if p := sys.PendingRepairs(); len(p) != 0 {
							t.Errorf("repairs still pending: %v", p)
						}
						if err := sys.Close(); err != nil {
							t.Fatal(err)
						}

						// Durability: a fresh System over the healed
						// directory serves the same content.
						sys2, err := Open(Config{Dir: dir, Workers: w})
						if err != nil {
							t.Fatal(err)
						}
						defer sys2.Close()
						if got := runScriptOut(t, sys2, src); got != reopenOut {
							t.Errorf("reopened output diverged from baseline\n%s",
								digestDiff(reopenOut, got))
						}
						if got := viewContentDigest(sys2); got != wantViews {
							t.Errorf("reopened view content diverged\n%s",
								digestDiff(wantViews, got))
						}
					})
				}
			}
		})
	}
}

// TestRepairCrashKillPoints: a crash at each stage of the repair
// pipeline — between range recomputations (view:repair), inside the
// re-append (view:write), and inside generational compaction
// (view:compact) — must leave the view recoverable: the old state
// stays authoritative, repair is idempotent, and a retry (in-process
// or after a full restart) converges to the pristine baseline.
func TestRepairCrashKillPoints(t *testing.T) {
	src := chaosScripts(t)["reuse_flow.sql"]
	if src == "" {
		t.Fatal("reuse_flow.sql missing")
	}
	_, wantOut, _, wantViews := scrubBaseline(t, src)
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
			sys, err := Open(Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			runScriptOut(t, sys, src)
			corruptViewsAt(t, dir, "mid")
			inj := faults.New(1)
			inj.Rule(kp.site, kp.rule)
			sys.InjectFaults(inj)
			if _, err := sys.Scrub(); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Repair()
			if err != nil {
				t.Fatal(err)
			}
			crashed := false
			for _, r := range rep.Records {
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
				sys.InjectFaults(faults.New(0))
				if _, err := sys.Repair(); err != nil {
					t.Fatal(err)
				}
				if got := runScriptOut(t, sys, src); got != wantOut {
					t.Errorf("in-process retry output diverged\n%s", digestDiff(wantOut, got))
				}
				if got := viewContentDigest(sys); got != wantViews {
					t.Errorf("in-process retry views diverged\n%s", digestDiff(wantViews, got))
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart over the crashed directory: the old generation (or
			// salvaged log) is authoritative, orphan scratch files are
			// discarded, and scrub + repair + one warm run converge.
			sys2, err := Open(Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer sys2.Close()
			runScriptOut(t, sys2, src)
			if _, err := sys2.Scrub(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys2.Repair(); err != nil {
				t.Fatal(err)
			}
			if got := runScriptOut(t, sys2, src); got != wantOut {
				t.Errorf("post-restart output diverged\n%s", digestDiff(wantOut, got))
			}
			if got := viewContentDigest(sys2); got != wantViews {
				t.Errorf("post-restart views diverged\n%s", digestDiff(wantViews, got))
			}
			rep2, err := sys2.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Findings) != 0 || rep2.Quarantined != 0 {
				t.Errorf("residue after restart recovery: %+v", rep2)
			}
		})
	}
}

// TestRepairRecomputesInteriorHole: an interior corruption in an
// id-keyed view is healed by System.Repair *alone* — the survived-id
// residual bounds the hole, the synthesized range query recomputes
// exactly the lost keys, and no user query needs to run again.
func TestRepairRecomputesInteriorHole(t *testing.T) {
	src := chaosScripts(t)["groupby_agg.sql"]
	if src == "" {
		t.Fatal("groupby_agg.sql missing")
	}
	_, _, _, wantViews := scrubBaseline(t, src)
	dir := t.TempDir()
	sys, err := Open(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	runScriptOut(t, sys, src)
	corruptViewsAt(t, dir, "mid")
	rep, err := sys.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("scrub missed the interior corruption")
	}
	if p := sys.PendingRepairs(); len(p) == 0 {
		t.Fatal("no symbolic repair was registered")
	}
	rrep, err := sys.Repair()
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, r := range rrep.Records {
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
	if got := viewContentDigest(sys); got != wantViews {
		t.Errorf("repair-only healing diverged from baseline\n%s", digestDiff(wantViews, got))
	}
}

// TestBackgroundScrubberHeals: with ScrubInterval set, corruption is
// found by the background scrubber off the virtual clock — no explicit
// Scrub call — and queued for repair.
func TestBackgroundScrubberHeals(t *testing.T) {
	src := chaosScripts(t)["groupby_agg.sql"]
	if src == "" {
		t.Fatal("groupby_agg.sql missing")
	}
	_, wantOut, _, wantViews := scrubBaseline(t, src)
	dir := t.TempDir()
	sys, err := Open(Config{Dir: dir, Workers: 2, ScrubInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	runScriptOut(t, sys, src)
	corruptViewsAt(t, dir, "mid")
	// Any statement completion nudges the scrubber; the virtual clock
	// has long passed the 1ns cadence, so a pass fires asynchronously.
	warm := runScriptOut(t, sys, src)
	deadline := time.Now().Add(10 * time.Second)
	for len(sys.PendingRepairs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never quarantined the corruption (stats %+v)",
				sys.ScrubberStats())
		}
		time.Sleep(time.Millisecond)
		warm = runScriptOut(t, sys, src)
	}
	if st := sys.ScrubberStats(); st.Passes == 0 {
		t.Fatalf("repairs pending but no scrub pass counted: %+v", st)
	}
	_ = warm
	if _, err := sys.Repair(); err != nil {
		t.Fatal(err)
	}
	if got := runScriptOut(t, sys, src); got != wantOut {
		t.Errorf("post-heal output diverged\n%s", digestDiff(wantOut, got))
	}
	if got := viewContentDigest(sys); got != wantViews {
		t.Errorf("post-heal views diverged\n%s", digestDiff(wantViews, got))
	}
}

// sessionOnlySystem opens a system and runs statements through a
// client Session only — cold detector evaluations, so every statement
// advances the virtual clock far past a millisecond cadence and the
// two detectors leave two views for the evictor to choose between.
func sessionOnlySystem(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.Dir = t.TempDir()
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		t.Fatal(err)
	}
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

// awaitBackground polls cond: background passes fire asynchronously,
// after the nudging statement releases the lifecycle lock.
func awaitBackground(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionStatementsDriveScrubber: statements that only ever run
// through a client Session must advance the background scrubber's
// cadence like System.Exec does. (Regression: only System.ExecStmt
// nudged, so a served system never scrubbed.)
func TestSessionStatementsDriveScrubber(t *testing.T) {
	sys := sessionOnlySystem(t, Config{ScrubInterval: time.Millisecond})
	awaitBackground(t, "scrub pass after session statements",
		func() bool { return sys.ScrubberStats().Passes >= 1 })
}
