package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"eva/internal/storage"
	"eva/internal/testutil"
)

// TestCheckpointRetentionBoundsLog: replay is last-record-wins, so the
// log folds itself once ckptCompactRecords accumulate. Writing many
// checkpoints keeps the file bounded, and reopen still recovers the
// newest state exactly.
func TestCheckpointRetentionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetBudget(storage.NewDiskBudget(0))
	path := filepath.Join(dir, "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), store, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last ckptState
	for i := 1; i <= 40; i++ {
		last = mkState(int64(i*8), 0, int64(i))
		if err := c.write(last, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Worst case on disk: the fold trigger fires *before* an append, so
	// at most ckptCompactRecords records plus the one just appended.
	recLen := int64(len(last.encode(nil)))
	bound := int64(ckptHeaderLen) + int64(ckptCompactRecords+1)*recLen
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > bound {
		t.Fatalf("checkpoint log grew to %d bytes, retention bound %d", fi.Size(), bound)
	}
	if c.log.Footprint() != fi.Size() {
		t.Fatalf("in-memory footprint %d != file size %d", c.log.Footprint(), fi.Size())
	}
	testutil.CheckLedger(t, dir, store.Budget().Stats().UsedBytes)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(c2.st, last) || c2.log.Recovered() != 0 {
		t.Fatalf("reopen after folds: state=%+v recovered=%d, want %+v", c2.st, c2.log.Recovered(), last)
	}
}

// TestCheckpointBudgetFoldFallback: a budget denial first tries folding
// the log's own history before surfacing disk-full — so a checkpoint
// whose fresh record fits in the folded footprint succeeds without
// evicting anyone.
func TestCheckpointBudgetFoldFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := c.write(mkState(int64(i*8), 0, int64(i)), nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Cap the budget so the next record does not fit as-is but does fit
	// once the five history records fold to one; reopen against the
	// store after setting the budget so the log's footprint is charged
	// against it.
	recLen := int64(len(mkState(48, 0, 6).encode(nil)))
	store.SetBudget(storage.NewDiskBudget(int64(ckptHeaderLen) + 2*recLen))
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if c, err = openCheckpoint(path, ckptSite(), store, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.write(mkState(48, 0, 6), nil); err != nil {
		t.Fatalf("write under tight budget: %v", err)
	}
	if c.recs != 2 {
		t.Fatalf("recs after fold fallback = %d, want 2 (folded state + new record)", c.recs)
	}
	st := store.Budget().Stats()
	if st.Denials < 1 {
		t.Fatalf("budget denial not recorded: %+v", st)
	}
	testutil.CheckLedger(t, dir, st.UsedBytes)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	c2, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(c2.st, mkState(48, 0, 6)) {
		t.Fatalf("recovered %+v after fold fallback", c2.st)
	}
}

// TestCheckpointOpenRemovesScratch: a fold that died between writing
// its scratch file and the rename leaves the scratch behind; the next
// open removes it and recovers the old generation.
func TestCheckpointOpenRemovesScratch(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetBudget(storage.NewDiskBudget(0))
	path := filepath.Join(dir, "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.write(mkState(8, 0, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := openCheckpoint(path, ckptSite(), store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("open left the fold's scratch file behind")
	}
	if !sameState(c2.st, mkState(8, 0, 3)) {
		t.Errorf("recovered %+v", c2.st)
	}
	testutil.CheckLedger(t, dir, store.Budget().Stats().UsedBytes)
}
