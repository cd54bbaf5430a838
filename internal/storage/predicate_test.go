package storage

import (
	"bytes"
	"os"
	"testing"

	"eva/internal/faults"
	"eva/internal/types"
)

// openDet opens (or creates) the test view in a fresh engine on dir.
func openDet(t *testing.T, dir string) (*Engine, *View) {
	t.Helper()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	v, err := e.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return e, v
}

func wantPredicate(t *testing.T, v *View, pred string, stale bool) {
	t.Helper()
	got, gotStale := v.Predicate()
	if string(got) != pred || gotStale != stale {
		t.Fatalf("predicate = %q (stale %v), want %q (stale %v)", got, gotStale, pred, stale)
	}
}

// TestPredicateRecordLastWins: snapshots are records of the view log —
// the last one replayed is the view's predicate, an equal snapshot
// writes nothing, an empty one reads as none, and a log that never held
// one (every log written before the record kind existed) opens with
// none and is otherwise untouched.
func TestPredicateRecordLastWins(t *testing.T) {
	dir := t.TempDir()
	e, v := openDet(t, dir)
	crashAppend(t, v, 0)
	before := v.Footprint()
	wantPredicate(t, v, "", false)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, v = openDet(t, dir)
	if wantPredicate(t, v, "", false); v.Footprint() != before {
		t.Fatalf("a log without a snapshot changed size on reopen: %d → %d", before, v.Footprint())
	}

	for i, p := range []string{"p1", "p2"} {
		if err := v.AppendPredicate([]byte(p), nil); err != nil {
			t.Fatal(err)
		}
		crashAppend(t, v, i+1) // rows between and after the snapshots
	}
	size := v.Footprint()
	if err := v.AppendPredicate([]byte("p2"), nil); err != nil || v.Footprint() != size {
		t.Fatalf("an unchanged snapshot wrote %d bytes (err %v)", v.Footprint()-size, err)
	}
	golden := snapshotView(v)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, v = openDet(t, dir)
	wantPredicate(t, v, "p2", false)
	if got := snapshotView(v); got.rows != golden.rows || got.processed != golden.processed || !bytes.Equal(got.data, golden.data) {
		t.Fatalf("rows around the snapshots did not replay: %d/%d, want %d/%d", got.rows, got.processed, golden.rows, golden.processed)
	}
	if err := v.AppendPredicate(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, v = openDet(t, dir)
	wantPredicate(t, v, "", false)
}

// TestExistingOpensFromHeader: the manager reaches a persisted
// predicate before any operator knows the view's row layout, so the log
// opens as its own header describes it — and the operator's CreateView
// then finds that very view.
func TestExistingOpensFromHeader(t *testing.T) {
	dir := t.TempDir()
	e, v := openDet(t, dir)
	crashAppend(t, v, 0)
	if err := v.AppendPredicate([]byte("p"), nil); err != nil {
		t.Fatal(err)
	}
	golden, path := snapshotView(v), v.path
	if e.Existing("nosuch") != nil {
		t.Error("Existing invented a view")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.Existing("det")
	if got == nil {
		t.Fatal("Existing did not open the log on disk")
	}
	wantPredicate(t, got, "p", false)
	if !got.Schema().Equal(viewSchema()) || len(got.KeyColumns()) != 1 || got.KeyColumns()[0] != "id" {
		t.Errorf("layout from header: %s keys %v", got.Schema(), got.KeyColumns())
	}
	if s := snapshotView(got); s.rows != golden.rows || s.processed != golden.processed || !bytes.Equal(s.data, golden.data) {
		t.Errorf("rows from header-opened log: %d/%d, want %d/%d", s.rows, s.processed, golden.rows, golden.processed)
	}
	if created, err := e2.CreateView("det", viewSchema(), []string{"id"}); err != nil || created != got {
		t.Errorf("CreateView after Existing: %p, %v; want the open view %p", created, err, got)
	}
	crashAppend(t, got, 1) // and it is appendable like any other
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing to open without a creator's schema: a committed eviction
	// (tombstone) and an unreadable header are CreateView's to deal with,
	// and the files stay as they are for it.
	for name, damage := range map[string]func(){
		"tombstone": func() { os.WriteFile(tombPath(path), []byte("EVAT"), 0o644) },
		"header": func() {
			os.Remove(tombPath(path))
			data, _ := os.ReadFile(path)
			data[0] ^= 0xff
			os.WriteFile(path, data, 0o644)
		},
	} {
		damage()
		before, _ := os.ReadFile(path)
		e3, _ := Open(dir)
		if e3.Existing("det") != nil {
			t.Errorf("%s: Existing opened the view", name)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Errorf("%s: Existing modified the log", name)
		}
		e3.Close()
	}
}

// TestPredicateStaleAfterLoss is the storage half of the invariant "a
// durable predicate never claims rows the log lost": whenever rows go —
// a hole salvaged around at open, a scrub that drops rows, an eviction
// — the snapshot is marked stale; a stale snapshot is not extended and
// not carried into a compacted generation; only the owner's shrink
// clears the mark.
func TestPredicateStaleAfterLoss(t *testing.T) {
	dir := t.TempDir()
	e, v := openDet(t, dir)
	for i := 0; i < crashAppends; i++ {
		crashAppend(t, v, i)
	}
	if err := v.AppendPredicate([]byte("all four appends"), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, v.path, 2) // rows of append 1
	os.Remove(cleanPath(v.path))

	e, v = openDet(t, dir)
	if v.Quarantine() == nil {
		t.Fatal("corruption was not quarantined")
	}
	wantPredicate(t, v, "all four appends", true)
	size := v.Footprint()
	if err := v.AppendPredicate([]byte("and more"), nil); err != nil || v.Footprint() != size {
		t.Fatalf("a stale snapshot was extended: %d bytes, err %v", v.Footprint()-size, err)
	}
	wantPredicate(t, v, "all four appends", true)

	// Reopening finds the same hole, hence the same mark.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, v = openDet(t, dir)
	wantPredicate(t, v, "all four appends", true)

	// Compaction heals the holes; with them goes the only evidence that
	// the snapshot over-claims, so the snapshot must go too.
	if _, err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	wantPredicate(t, v, "", true)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, v = openDet(t, dir)
	wantPredicate(t, v, "", false)

	// The owner's shrink is what clears the mark, and what it writes is
	// carried by the next compaction.
	crashAppend(t, v, 1)
	if err := v.AppendPredicate([]byte("all four again"), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, v.path, 1)
	os.Remove(cleanPath(v.path))
	e, v = openDet(t, dir)
	wantPredicate(t, v, "all four again", true)
	v.ShrinkPredicate([]byte("what survived"))
	wantPredicate(t, v, "what survived", false)
	if _, err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	wantPredicate(t, v, "what survived", false)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, v = openDet(t, dir)
	wantPredicate(t, v, "what survived", false)

	// Eviction loses every row and the snapshot with them.
	if _, err := v.evict(); err != nil {
		t.Fatal(err)
	}
	wantPredicate(t, v, "", true)
	v.ShrinkPredicate(nil)
	wantPredicate(t, v, "", false)
	if v.Footprint() != int64(len(v.encodeHeader())) {
		t.Errorf("acknowledging an eviction wrote to the fresh log: %d bytes", v.Footprint())
	}
	e.Close()
}

// TestPredicateWriteFaults: a snapshot goes through the row path's
// write discipline — an injected failure rolls the record back and
// leaves the previous snapshot, a simulated crash kills the handle and
// leaves a torn tail the next open truncates.
func TestPredicateWriteFaults(t *testing.T) {
	dir := t.TempDir()
	e, v := openDet(t, dir)
	crashAppend(t, v, 0)
	if err := v.AppendPredicate([]byte("first"), nil); err != nil {
		t.Fatal(err)
	}
	size := v.Footprint()

	inj := faults.New(3)
	inj.Rule(faults.SiteViewWrite("det"), faults.Rule{Kind: faults.Transient, At: []int{1}, Limit: 1, ShortWrite: 5})
	err := v.AppendPredicate([]byte("second"), inj)
	if !faults.IsTransient(err) || v.Footprint() != size {
		t.Fatalf("transient fault: err %v, footprint %d → %d", err, size, v.Footprint())
	}
	if st, _ := os.Stat(v.path); st.Size() != size {
		t.Fatalf("failed snapshot left %d bytes on disk, want the rolled-back %d", st.Size(), size)
	}
	wantPredicate(t, v, "first", false)
	if err := v.AppendPredicate([]byte("second"), inj); err != nil {
		t.Fatalf("retry after the transient: %v", err)
	}
	wantPredicate(t, v, "second", false)
	size = v.Footprint()

	crash := faults.New(3)
	crash.Rule(faults.SiteViewWrite("det"), faults.Rule{Kind: faults.Crash, At: []int{1}, Limit: 1, ShortWrite: 13})
	if err := v.AppendPredicate([]byte("third, never durable"), crash); !faults.IsCrash(err) {
		t.Fatalf("crash fault: %v", err)
	}
	wantPredicate(t, v, "second", false)
	if err := v.AppendPredicate([]byte("fourth"), nil); err == nil {
		t.Fatal("a view killed mid-snapshot accepted another write")
	}
	e.Close()

	_, v = openDet(t, dir)
	if v.RecoveredBytes() != 13 || v.Footprint() != size {
		t.Errorf("torn snapshot: recovered %d bytes, footprint %d; want 13, %d", v.RecoveredBytes(), v.Footprint(), size)
	}
	wantPredicate(t, v, "second", false)
}

// TestBudgetDenialOfPredicateIsDiskFull: a snapshot the budget cannot
// admit fails the way a row record does, so the caller's MakeRoom can
// run the reclaim ladder for it.
func TestBudgetDenialOfPredicateIsDiskFull(t *testing.T) {
	e, v := openDet(t, t.TempDir())
	cold, err := e.CreateView("cold", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	crashAppend(t, cold, 0)
	crashAppend(t, v, 0)
	e.SetBudget(NewDiskBudget(e.Budget().Stats().UsedBytes + v.Footprint() + cold.Footprint() + 2*cleanLen + 8))
	pred := bytes.Repeat([]byte("p"), 64)
	err = v.AppendPredicate(pred, nil)
	if !IsDiskFull(err) {
		t.Fatalf("budget denial: %v", err)
	}
	if err := v.MakeRoom(err, 1); err != nil {
		t.Fatalf("reclaim for the snapshot: %v", err)
	}
	if cold.Rows() != 0 {
		t.Error("the ladder did not evict the cold view")
	}
	if err := v.AppendPredicate(pred, nil); err != nil {
		t.Fatalf("retry after reclaim: %v", err)
	}
	wantPredicate(t, v, string(pred), false)
}

// TestReplayFillsChunksOnce: a log of many small records replays into
// column chunks that are allocated once at full length — as many as the
// rows need, none regrown — and a row count no payload could hold
// costs an error, not an allocation sized by it.
func TestReplayFillsChunksOnce(t *testing.T) {
	dir := t.TempDir()
	e, v := openDet(t, dir)
	for i := 0; i < 200; i++ {
		crashAppend(t, v, i)
	}
	rows := v.Rows()
	e.Close()
	_, v = openDet(t, dir)
	if v.Rows() != rows || v.Scan().Len() != rows {
		t.Fatalf("reopened view has %d rows (Scan: %d), want %d", v.Rows(), v.Scan().Len(), rows)
	}
	per := 1 << chunkShift
	if got, want := len(v.rows.chunks), (rows+per-1)/per; got != want {
		t.Errorf("%d rows replayed into %d chunks, want %d", rows, got, want)
	}
	for i, c := range v.rows.chunks {
		if c.Len() != per || cap(c.Col(0)) != per {
			t.Errorf("chunk %d is %d rows long with capacity %d, want %d and %d", i, c.Len(), cap(c.Col(0)), per, per)
		}
	}

	// The replayed datums share nothing with the log image: TEXT values
	// live in per-record arenas, so the image may be dropped or reused.
	data, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	s := v.shadowLocked()
	if _, err := s.replay(data, 0); err != nil {
		t.Fatal(err)
	}
	clear(data)
	if got, want := snapshotView(s), snapshotView(v); !bytes.Equal(got.data, want.data) || got.rows != want.rows {
		t.Error("rows replayed from a log image changed when the image was overwritten")
	}

	hostile := sealRecord(v.encodeHeader(), recRows, 1<<31-1, bytes.Repeat([]byte{0}, 30))
	s = v.shadowLocked()
	if _, err := s.replay(hostile, 0); err == nil {
		t.Error("a row record with fewer rows than announced replayed")
	}
	if len(s.rows.chunks) > 1 {
		t.Errorf("a 30-byte payload announcing 2^31 rows allocated %d chunks", len(s.rows.chunks))
	}
}

// TestAppendEncodedKindMismatchIsAnError: a row record whose datums do
// not fit the schema fails the open with an error where it once
// panicked.
func TestAppendEncodedKindMismatchIsAnError(t *testing.T) {
	v := fuzzView()
	var payload []byte
	for _, d := range []types.Datum{types.NewString("not an id"), types.NewString("car"), types.NewString("a")} {
		payload = d.AppendBinary(payload)
	}
	log := sealRecord(v.encodeHeader(), recRows, 1, payload)
	if _, err := v.replay(log, 0); err == nil || v.rows.len() != 0 {
		t.Fatalf("kind mismatch: err %v, %d rows kept", err, v.rows.len())
	}
}
