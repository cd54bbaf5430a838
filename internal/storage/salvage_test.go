package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/faults"
	"eva/internal/types"
)

// corruptRecord flips a byte inside the n-th record's header (0-based)
// so the record fails structurally and salvage must resync past it.
func corruptRecord(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := headerEnd(t, data)
	for i := 0; i < n; i++ {
		end, ok := recordBounds(data, off)
		if !ok {
			t.Fatalf("record %d not found for corruption", i)
		}
		off = end
	}
	data[off] ^= 0xff // record kind byte: structural failure
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// headerEnd returns the offset of the first record in a v2 view log.
func headerEnd(t *testing.T, data []byte) int {
	t.Helper()
	off := 5
	ncols := int(data[off])
	off++
	for i := 0; i < ncols; i++ {
		off += 2 + int(data[off+1])
	}
	nkeys := int(data[off])
	off++
	for i := 0; i < nkeys; i++ {
		off += 1 + int(data[off])
	}
	return off
}

// TestSalvageMultipleHoles: two corrupt records in one log produce two
// quarantined ranges, and every intact record around them survives.
func TestSalvageMultipleHoles(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	for i := 0; i < crashAppends; i++ {
		crashAppend(t, v, i)
	}
	golden := snapshotView(v)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Records: [rows0 keys0 rows1 keys1 rows2 keys2 rows3 keys3].
	// Corrupt rows3 then rows1 (descending, so the traversal in
	// corruptRecord never crosses an already-corrupted record); drop
	// the sidecar so the open re-hashes.
	corruptRecord(t, v.path, 6)
	corruptRecord(t, v.path, 2)
	if err := os.Remove(cleanPath(v.path)); err != nil {
		t.Fatal(err)
	}

	e2, _ := Open(dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatalf("multi-hole salvage failed: %v", err)
	}
	if v2.Rows() != golden.rows-6 {
		t.Errorf("salvaged rows = %d, want %d (two 3-row records lost)", v2.Rows(), golden.rows-6)
	}
	q := v2.Quarantine()
	if q == nil || len(q.Ranges) != 2 {
		t.Fatalf("quarantine = %+v, want two lost ranges", q)
	}
	if q.Ranges[0].Hi > q.Ranges[1].Lo {
		t.Errorf("quarantine ranges out of order: %+v", q.Ranges)
	}
	// Salvage preserves appendability: the view keeps taking writes,
	// and re-appending the lost rows converges (idempotent per key).
	crashAppend(t, v2, 1)
	crashAppend(t, v2, 3)
	if v2.Rows() != golden.rows {
		t.Errorf("after re-append rows = %d, want %d", v2.Rows(), golden.rows)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := Open(dir)
	v3, err := e3.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotView(v3)
	if got.rows != golden.rows || got.processed != golden.processed {
		t.Errorf("reopen after re-append: rows=%d keys=%d, want %d/%d",
			got.rows, got.processed, golden.rows, golden.processed)
	}
}

// TestHeaderCorruptionTotalLoss: an unreadable header quarantines the
// whole generation; the view restarts empty but stays usable.
func TestHeaderCorruptionTotalLoss(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	oldSize := v.Footprint()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff // magic
	if err := os.WriteFile(v.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openLedger(t, dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatalf("header corruption must salvage, not fail: %v", err)
	}
	if v2.Rows() != 0 || v2.ProcessedCount() != 0 {
		t.Errorf("total loss kept rows=%d keys=%d", v2.Rows(), v2.ProcessedCount())
	}
	q := v2.Quarantine()
	if q == nil || len(q.Ranges) != 1 || q.Ranges[0].Hi != oldSize {
		t.Fatalf("quarantine = %+v, want whole old generation [0,%d)", q, oldSize)
	}
	checkLedger(t, e2)
	// The fresh log works: appends land and survive a clean reopen.
	crashAppend(t, v2, 0)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := Open(dir)
	v3, err := e3.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Rows() != 3 {
		t.Errorf("fresh generation lost rows: %d", v3.Rows())
	}
}

// TestQuarantineManifestRoundTrip: the manifest survives encode/decode
// and rejects tampering.
func TestQuarantineManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.view")
	q := &Quarantine{Ranges: []LostRange{{Lo: 10, Hi: 42}, {Lo: 100, Hi: 107}}}
	writeQuarManifest(nil, path, q)
	got := readQuarManifest(path)
	if len(got) != 2 || got[0] != q.Ranges[0] || got[1] != q.Ranges[1] {
		t.Fatalf("round trip = %+v, want %+v", got, q.Ranges)
	}
	// Tampered manifests are ignored, not trusted.
	data, err := os.ReadFile(quarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0xff
	if err := os.WriteFile(quarPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readQuarManifest(path); got != nil {
		t.Errorf("tampered manifest decoded to %+v", got)
	}
	// An empty quarantine removes the manifest.
	writeQuarManifest(nil, path, nil)
	if _, err := os.Stat(quarPath(path)); !os.IsNotExist(err) {
		t.Error("nil quarantine left a manifest behind")
	}
}

// TestSurvivedIDRanges: processed keys merge into closed id ranges;
// non-integer or id-less key shapes refuse to make a claim.
func TestSurvivedIDRanges(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	var keys [][]types.Datum
	for _, id := range []int64{0, 1, 2, 5, 7, 8, 3} {
		keys = append(keys, []types.Datum{types.NewInt(id)})
	}
	if _, err := v.Append(nil, keys); err != nil {
		t.Fatal(err)
	}
	ranges, ok := v.SurvivedIDRanges()
	if !ok {
		t.Fatal("id-keyed view made no survival claim")
	}
	want := []IDRange{{0, 3}, {5, 5}, {7, 8}}
	if len(ranges) != len(want) {
		t.Fatalf("ranges = %+v, want %+v", ranges, want)
	}
	for i := range want {
		if ranges[i] != want[i] {
			t.Fatalf("ranges = %+v, want %+v", ranges, want)
		}
	}

	// A view keyed by a non-id column cannot claim id ranges.
	sch := types.MustSchema(
		types.Column{Name: "bbox", Kind: types.KindString},
		types.Column{Name: "out", Kind: types.KindString},
	)
	v2, err := e.CreateView("scalar", sch, []string{"bbox"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Append(nil, [][]types.Datum{{types.NewString("b0")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.SurvivedIDRanges(); ok {
		t.Error("bbox-keyed view claimed id ranges")
	}
}

// TestSalvageTornTailAfterHole: a mid-log hole plus a torn tail in the
// same file — the hole quarantines, the tail truncates, both coexist.
func TestSalvageTornTailAfterHole(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	for i := 0; i < 3; i++ {
		crashAppend(t, v, i)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, v.path, 2) // rows1
	data, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final record short (torn tail) and drop the sidecar.
	if err := os.WriteFile(v.path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cleanPath(v.path)); err != nil {
		t.Fatal(err)
	}

	e2 := openLedger(t, dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	// Lost: rows1 (3 rows, hole) and keys2 (torn tail). Kept: rows0,
	// keys0, keys1, rows2.
	if v2.Rows() != 6 {
		t.Errorf("rows = %d, want 6", v2.Rows())
	}
	if q := v2.Quarantine(); q == nil || len(q.Ranges) != 1 {
		t.Errorf("quarantine = %+v, want the mid-log hole only", q)
	}
	if v2.RecoveredBytes() == 0 {
		t.Error("torn tail not truncated")
	}
	checkLedger(t, e2)
}

// TestDropViewsRemovesQuarantineSidecars: DropViews leaves no .quar or
// .compact debris behind.
func TestDropViewsRemovesQuarantineSidecars(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	writeQuarManifest(nil, v.path, &Quarantine{Ranges: []LostRange{{Lo: 1, Hi: 2}}})
	if err := os.WriteFile(compactPath(v.path), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.DropViews(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{v.path, cleanPath(v.path), quarPath(v.path), compactPath(v.path)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("DropViews left %s behind", filepath.Base(p))
		}
	}
}

// TestResyncRejectsFalsePositives: resynchronization must land on a
// checksum-valid record, not on plausible-looking garbage.
func TestResyncRejectsFalsePositives(t *testing.T) {
	// A buffer of structurally plausible but checksum-less bytes.
	junk := bytes.Repeat([]byte{recRows, 1, 0, 0, 0, 4, 0, 0, 0}, 8)
	if got := resyncRecord(junk, 0); got != -1 {
		t.Errorf("resync accepted junk at %d", got)
	}
	// A real record embedded mid-buffer is found exactly.
	rec := sealRecord(nil, recKeys, 0, nil)
	data := append(append([]byte{0xaa, 0xbb, 0xcc}, rec...), 0xdd)
	if got := resyncRecord(data, 0); got != 3 {
		t.Errorf("resync = %d, want 3", got)
	}
}

// TestCompactCrashLeavesOldGeneration: a simulated kill mid-compaction
// leaves the old generation authoritative; the next open discards the
// scratch file and rebuilds the pre-compaction state.
func TestCompactCrashLeavesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	inj := faults.New(7)
	inj.Rule(faults.SiteViewCompact("det"), faults.Rule{Kind: faults.Crash, At: []int{1}, ShortWrite: 9})
	e.SetInjector(inj)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	for i := 0; i < 3; i++ {
		crashAppend(t, v, i)
	}
	golden := snapshotView(v)

	if _, err := v.Compact(); err == nil {
		t.Fatal("compact crash unexpectedly succeeded")
	} else if !faults.IsCrash(err) {
		t.Fatalf("compact error = %v, want injected crash", err)
	}
	if _, err := os.Stat(compactPath(v.path)); err != nil {
		t.Fatal("crash mid-compaction left no scratch file (wanted a torn one)")
	}
	// The killed process's view is dead in this process...
	if _, err := v.Append(mkRows(99), nil); err == nil {
		t.Fatal("dead view accepted an append")
	}
	// ...but the old generation is untouched: reopen converges.
	e2 := openLedger(t, dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotView(v2)
	if got.rows != golden.rows || got.processed != golden.processed || !bytes.Equal(got.data, golden.data) {
		t.Fatalf("post-crash reopen diverged: rows=%d keys=%d", got.rows, got.processed)
	}
	if _, err := os.Stat(compactPath(v2.path)); !os.IsNotExist(err) {
		t.Error("reopen did not discard the scratch generation")
	}
	// And compaction retries cleanly (fresh draw, no rule firing).
	if _, err := v2.Compact(); err != nil {
		t.Fatalf("retry compact: %v", err)
	}
	checkLedger(t, e2)
}

// TestCompactTransientFaultRetries: a transient compaction fault keeps
// the old generation and the live handle; the retry succeeds.
func TestCompactTransientFaultRetries(t *testing.T) {
	dir := t.TempDir()
	e := openLedger(t, dir)
	inj := faults.New(3)
	inj.Rule(faults.SiteViewCompact("det"), faults.Rule{Kind: faults.Transient, At: []int{1}})
	e.SetInjector(inj)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	golden := snapshotView(v)

	if _, err := v.Compact(); err == nil {
		t.Fatal("transient compact fault did not surface")
	}
	if _, err := os.Stat(compactPath(v.path)); !os.IsNotExist(err) {
		t.Error("failed compaction left a scratch file")
	}
	if got := snapshotView(v); got.rows != golden.rows {
		t.Errorf("failed compaction changed state: rows=%d", got.rows)
	}
	checkLedger(t, e)
	res, err := v.Compact()
	if err != nil {
		t.Fatalf("retry compact: %v", err)
	}
	if res.BytesAfter == 0 || v.Quarantine() != nil {
		t.Errorf("retry compact result = %+v, quar = %+v", res, v.Quarantine())
	}
	// The view still appends after swapping generations.
	crashAppend(t, v, 1)
	if v.Rows() != golden.rows+3 {
		t.Errorf("append after compact: rows=%d", v.Rows())
	}
	checkLedger(t, e)
}
