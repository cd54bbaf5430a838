package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"eva/internal/faults"
	"eva/internal/testutil"
	"eva/internal/types"
)

// appendDelta measures how many budget bytes one scripted append
// charges (every crashAppend writes identically shaped records).
func appendDelta(t *testing.T, e *Engine, v *View, i int) int64 {
	t.Helper()
	before := e.Budget().Stats().UsedBytes
	crashAppend(t, v, i)
	return e.Budget().Stats().UsedBytes - before
}

// TestBudgetDenialEvictsColdView: when an append does not fit the
// budget, the engine evicts the cold view (never the one being
// appended), the append retries and succeeds, and the evicted view is
// reborn empty and reusable.
func TestBudgetDenialEvictsColdView(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	a, err := e.CreateView("cold", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		crashAppend(t, a, i)
	}
	b, err := e.CreateView("hot", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate: account-only budget, one probe append on the hot view.
	e.SetBudget(NewDiskBudget(0))
	delta := appendDelta(t, e, b, 0)
	if delta <= 0 {
		t.Fatalf("append charged %d bytes", delta)
	}
	// Real budget: the next identical append must not fit without
	// reclaiming, and evicting the cold view frees more than enough.
	used := e.Budget().Stats().UsedBytes
	e.SetBudget(NewDiskBudget(used + delta - 1))
	var evicted []string
	e.SetEvictPolicy(nil, func(name string) { evicted = append(evicted, name) })

	crashAppend(t, b, 1) // fatals on error

	st := e.Budget().Stats()
	if st.Denials < 1 || st.Evictions != 1 || st.EvictReclaimedBytes <= 0 {
		t.Fatalf("budget stats after forced eviction: %+v", st)
	}
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted %v, want [cold]", evicted)
	}
	if a.Rows() != 0 || a.ProcessedCount() != 0 {
		t.Fatalf("evicted view still serves %d rows / %d keys", a.Rows(), a.ProcessedCount())
	}
	if b.Rows() != 6 {
		t.Fatalf("hot view has %d rows, want 6", b.Rows())
	}
	testutil.CheckOneFilePerView(t, dir)

	// The reborn view accepts appends and they persist across reopen.
	crashAppend(t, a, 0)
	checkLedger(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _ := Open(dir)
	a2, err := e2.CreateView("cold", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Rows() != 3 {
		t.Fatalf("reborn view reopened with %d rows, want 3", a2.Rows())
	}
}

// TestReclaimCompactsQuarantinedBeforeEvicting: the ladder's first
// tier reclaims a quarantined log's dead ranges by compaction; when
// that satisfies the need, no view is evicted.
func TestReclaimCompactsQuarantinedBeforeEvicting(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	for i := 0; i < 4; i++ {
		crashAppend(t, v, i)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, v.path, 2)

	e2, _ := Open(dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Quarantine() == nil {
		t.Fatal("corrupted log did not quarantine")
	}
	e2.SetBudget(NewDiskBudget(1 << 30))
	rowsBefore := v2.Rows()
	freed := e2.Reclaim(1, nil)
	if freed <= 0 {
		t.Fatalf("Reclaim freed %d, want > 0 from compaction", freed)
	}
	st := e2.Budget().Stats()
	if st.CompactReclaimedBytes != freed || st.Evictions != 0 {
		t.Fatalf("stats after tier-1 reclaim: %+v (freed %d)", st, freed)
	}
	if v2.Rows() != rowsBefore {
		t.Fatalf("compaction changed rows %d -> %d", rowsBefore, v2.Rows())
	}
	if v2.Quarantine() != nil {
		t.Fatal("compaction left the quarantine standing")
	}
	checkLedger(t, e2)
}

// TestEvictKillPoints drives a fault into both eviction kill-points and
// into the commit itself, and proves reopen sees either the intact view
// (before the rename, or when the rename fails) or an empty one (after
// it) — never a zombie — and that re-running the append script
// converges back to the golden state.
func TestEvictKillPoints(t *testing.T) {
	type cell struct {
		name        string
		kp          int // At{kp} on the view:evict site; 0: none
		kind        faults.Kind
		renameFails bool
		empty       bool // the eviction committed
	}
	var cells []cell
	for _, kind := range []faults.Kind{faults.Crash, faults.Permanent} {
		cells = append(cells,
			cell{name: fmt.Sprintf("id0-%v", kind), kp: 1, kind: kind},
			cell{name: fmt.Sprintf("id1-%v", kind), kp: 2, kind: kind, empty: true})
	}
	cells = append(cells, cell{name: "rename-fails", renameFails: true})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			e := openLedger(t, dir)
			if c.kp > 0 {
				inj := faults.New(7)
				inj.Rule(faults.SiteViewEvict("det"), faults.Rule{Kind: c.kind, At: []int{c.kp}})
				e.SetInjector(inj)
			}
			v, err := e.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < crashAppends; i++ {
				crashAppend(t, v, i)
			}
			golden := snapshotView(v)
			if c.renameFails {
				renameFile = func(string, string) error { return errors.New("rename refused") }
			}
			freed := e.Reclaim(1<<30, nil)
			renameFile = os.Rename
			if freed != 0 {
				t.Fatalf("interrupted evict reported %d bytes freed", freed)
			}
			// After the rename (and on any crash) the fault kills the handle:
			// disk is behind memory. Before it, a non-crash fault or a failed
			// rename aborts with nothing done, leaving the view live.
			if c.empty || c.kind == faults.Crash && c.kp > 0 {
				if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(99)}}); err == nil {
					t.Fatal("interrupted view accepted an append")
				}
			} else {
				if got := snapshotView(v); got.rows != golden.rows || got.processed != golden.processed {
					t.Fatalf("aborted evict changed the live view: %+v vs %+v", got, golden)
				}
				checkLedger(t, e)
			}
			testutil.CheckOneFilePerView(t, dir)

			e2 := openLedger(t, dir)
			v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Fatalf("reopen failed: %v", err)
			}
			want := golden
			if c.empty {
				want = viewState{}
			}
			if got := snapshotView(v2); got.rows != want.rows || got.processed != want.processed || !bytes.Equal(got.data, want.data) {
				t.Fatalf("reopen: rows=%d keys=%d, want %d/%d", got.rows, got.processed, want.rows, want.processed)
			}
			// Idempotent re-materialization converges to golden.
			for i := 0; i < crashAppends; i++ {
				crashAppend(t, v2, i)
			}
			if final := snapshotView(v2); final.rows != golden.rows || final.processed != golden.processed || !bytes.Equal(final.data, golden.data) {
				t.Fatalf("re-run diverged: %+v vs %+v", final, golden)
			}
			checkLedger(t, e2)
			testutil.CheckOneFilePerView(t, dir)
		})
	}
}

// TestDiskFullTransientRetriesInPlace: injected transient disk:fulls
// with nothing evictable still drain through the evict-retry loop's
// redraws — the append succeeds once the site stops failing.
func TestDiskFullTransientRetriesInPlace(t *testing.T) {
	e, _ := Open(t.TempDir())
	inj := faults.New(3)
	site := faults.SiteDiskFull(faults.SiteViewWrite("det"))
	inj.Rule(site, faults.Rule{Kind: faults.Transient, At: []int{1, 2}})
	e.SetInjector(inj)
	v, err := e.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	crashAppend(t, v, 0) // fatals if the retry did not drain the fault
	if v.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", v.Rows())
	}
	// The second fault fires only if the retry drew the site again.
	if ev := inj.Events(); len(ev) != 2 {
		t.Fatalf("disk:full faults %v, want 2 (fault + redrawn fault)", ev)
	}
}

// TestDiskBudgetTerminalWhenNothingEvictable: with only the appending
// view open, a budget shortfall has nothing to reclaim and surfaces
// the typed ErrDiskBudget; the view itself stays usable and unchanged.
func TestDiskBudgetTerminalWhenNothingEvictable(t *testing.T) {
	e, _ := Open(t.TempDir())
	v, err := e.CreateView("only", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	crashAppend(t, v, 0)
	e.SetBudget(NewDiskBudget(0)) // account-only: measure the footprint
	used := e.Budget().Stats().UsedBytes
	e.SetBudget(NewDiskBudget(used)) // exactly full
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(50), types.NewString("car"), types.NewString("x"))
	_, err = v.Append(rows, [][]types.Datum{{types.NewInt(50)}})
	if !errors.Is(err, ErrDiskBudget) {
		t.Fatalf("err = %v, want ErrDiskBudget", err)
	}
	// The terminal wrap flattens the DiskFullError to text so nothing
	// upstream re-enters an evict-retry loop on it.
	if isDiskFull(err) {
		t.Fatalf("terminal error still matches DiskFullError: %v", err)
	}
	if v.Rows() != 3 {
		t.Fatalf("failed append changed rows: %d", v.Rows())
	}
	// The denial wrote nothing, so the handle is alive for later
	// appends once the budget loosens.
	e.SetBudget(nil)
	crashAppend(t, v, 1)
	if v.Rows() != 6 {
		t.Fatalf("append after budget release: rows = %d, want 6", v.Rows())
	}
}

// TestReclaimOverHighWater: the background pass is a no-op under the
// high-water mark and reclaims down toward the low mark above it.
func TestReclaimOverHighWater(t *testing.T) {
	e, _ := Open(t.TempDir())
	a, _ := e.CreateView("a", viewSchema(), []string{"id"})
	b, _ := e.CreateView("b", viewSchema(), []string{"id"})
	for i := 0; i < 4; i++ {
		crashAppend(t, a, i)
		crashAppend(t, b, i)
	}
	e.SetBudget(NewDiskBudget(0))
	used := e.Budget().Stats().UsedBytes

	// Plenty of headroom: nothing to do.
	e.SetBudget(NewDiskBudget(used * 4))
	if freed := e.ReclaimOverHighWater(); freed != 0 {
		t.Fatalf("under high water freed %d", freed)
	}
	// Over 90% full: reclaim to (at most) the 70% low mark.
	limit := used + used/100 // ~99% full
	e.SetBudget(NewDiskBudget(limit))
	if freed := e.ReclaimOverHighWater(); freed <= 0 {
		t.Fatal("over high water freed nothing")
	}
	if got := e.Budget().Stats().UsedBytes; got > limit/10*7 {
		t.Fatalf("used %d after pass, want <= %d", got, limit/10*7)
	}
	checkLedger(t, e)
}

// TestWatermarkLogRetention: the watermark log folds itself once its
// record count crosses the retention tier, so footprint stays bounded
// while the recovered watermark stays exact.
func TestWatermarkLogRetention(t *testing.T) {
	dir := t.TempDir()
	e := openLedger(t, dir)
	v, err := e.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		if _, err := v.AppendFrames(1, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fi, err := os.Stat(wmPath(v.dir))
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(preambleLen + (wmCompactRecords+1)*wmRecLen)
	if fi.Size() > bound {
		t.Fatalf("watermark log grew to %d bytes, retention bound %d", fi.Size(), bound)
	}
	checkLedger(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _ := Open(dir)
	v2, err := e2.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Watermark() != 70 {
		t.Fatalf("recovered watermark %d, want 70", v2.Watermark())
	}
}
