package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/testutil"
	"eva/internal/types"
	"eva/internal/vision"
)

// openLedger opens an engine whose account-only budget is installed
// before anything is charged, so checkLedger can hold it to the bytes
// on disk.
func openLedger(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e.SetBudget(NewDiskBudget(0))
	return e
}

// checkLedger asserts the ledger invariant: the engine's budget charges
// exactly the bytes of the files under its root.
func checkLedger(t *testing.T, e *Engine) {
	t.Helper()
	testutil.CheckLedger(t, e.root, e.Budget().Stats().UsedBytes)
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestVideoScan(t *testing.T) {
	e := newEngine(t)
	ds := vision.Jackson
	v, err := e.CreateVideo("video", ds)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumFrames() != 14000 {
		t.Fatalf("frames = %d", v.NumFrames())
	}
	b, err := v.Scan(100, 110)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 10 {
		t.Fatalf("scan len = %d", b.Len())
	}
	if got := b.At(0, 0).Int(); got != 100 {
		t.Errorf("first id = %d", got)
	}
	// Payload decodes to the right frame.
	df, err := vision.DecodeFrame(b.At(3, 2).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if df.Frame != 103 {
		t.Errorf("payload frame = %d", df.Frame)
	}
	// Seconds column.
	if got := b.At(0, 1).Float(); got != 100.0/30.0 {
		t.Errorf("seconds = %v", got)
	}
}

func TestVideoScanBoundaries(t *testing.T) {
	e := newEngine(t)
	v, _ := e.CreateVideo("video", vision.Jackson)
	// Cross-segment scan (segment size 500).
	b, err := v.Scan(495, 505)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 10 || b.At(0, 0).Int() != 495 || b.At(9, 0).Int() != 504 {
		t.Errorf("cross-segment scan wrong: len=%d", b.Len())
	}
	// Clamping.
	b, err = v.Scan(-5, 3)
	if err != nil || b.Len() != 3 {
		t.Errorf("clamped low scan: %d, %v", b.Len(), err)
	}
	b, err = v.Scan(13995, 99999)
	if err != nil || b.Len() != 5 {
		t.Errorf("clamped high scan: %d, %v", b.Len(), err)
	}
	b, err = v.Scan(10, 10)
	if err != nil || b.Len() != 0 {
		t.Errorf("empty scan: %d, %v", b.Len(), err)
	}
}

// TestVideoSegmentPersistence: a segment is written on first scan, and a
// segment file that fails its frame check or does not decode — garbage,
// a hostile row count behind a version-1 header or behind a valid seal,
// a whole version-1 segment, one flipped byte, a cut — is regenerated
// from the dataset: the scan returns exactly the frames a fresh
// directory does, and the file is rewritten to the fresh bytes.
func TestVideoSegmentPersistence(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateVideo("video", vision.Jackson)
	fresh, err := v.Scan(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "videos", "video", "seg-*.bin"))
	if len(segs) != 1 {
		t.Fatalf("segments on disk = %d", len(segs))
	}
	good, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	body, ok := openSealed(good, segFile)
	if !ok {
		t.Fatal("fresh segment fails its frame check")
	}
	v1 := beginFile(nil, Format{magic: segFile.magic, version: 1})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	for name, data := range map[string][]byte{
		"garbage":              []byte("garbage"),
		"v1 hostile count":     append(v1, 0xff, 0xff, 0xff, 0xff),
		"sealed hostile count": sealFile(append(beginFile(nil, segFile), 0xff, 0xff, 0xff, 0xff)),
		"v1 segment":           append(append([]byte(nil), v1...), body...),
		"flipped byte":         flipped,
		"truncated":            good[:len(good)-3],
	} {
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		e2, _ := Open(dir)
		v2, _ := e2.CreateVideo("video", vision.Jackson)
		got, err := v2.Scan(0, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBatch(got, fresh) {
			t.Errorf("%s: scan differs from a fresh directory's", name)
		}
		if disk, _ := os.ReadFile(segs[0]); !bytes.Equal(disk, good) {
			t.Errorf("%s: segment not regenerated", name)
		}
	}
}

// sameBatch reports whether two batches hold the same rows.
func sameBatch(a, b *types.Batch) bool {
	if a.Len() != b.Len() {
		return false
	}
	for r := 0; r < a.Len(); r++ {
		for c := range a.Schema() {
			if !bytes.Equal(a.At(r, c).AppendBinary(nil), b.At(r, c).AppendBinary(nil)) {
				return false
			}
		}
	}
	return true
}

func TestCreateVideoDuplicate(t *testing.T) {
	e := newEngine(t)
	if _, err := e.CreateVideo("v", vision.Jackson); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateVideo("V", vision.Jackson); err == nil {
		t.Error("duplicate video should error")
	}
	if _, err := e.Video("v"); err != nil {
		t.Error("lookup failed")
	}
	if _, err := e.Video("ghost"); err == nil {
		t.Error("unknown video should error")
	}
}

func viewSchema() types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
		types.Column{Name: "bbox", Kind: types.KindString},
	)
}

func TestViewAppendScanLookup(t *testing.T) {
	e := newEngine(t)
	v, err := e.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1), types.NewString("car"), types.NewString("a"))
	rows.MustAppendRow(types.NewInt(1), types.NewString("bus"), types.NewString("b"))
	rows.MustAppendRow(types.NewInt(2), types.NewString("car"), types.NewString("c"))
	n, err := v.Append(rows, [][]types.Datum{{types.NewInt(3)}}) // frame 3 processed, no detections
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("stored %d rows, want 3", n)
	}
	if v.Rows() != 3 || v.ProcessedCount() != 3 {
		t.Errorf("rows=%d processed=%d", v.Rows(), v.ProcessedCount())
	}
	if !hasKey(v, []types.Datum{types.NewInt(3)}) {
		t.Error("empty-result key should be processed")
	}
	if hasKey(v, []types.Datum{types.NewInt(4)}) {
		t.Error("unprocessed key reported processed")
	}
	idxs := rowsForKey(v, []types.Datum{types.NewInt(1)})
	if len(idxs) != 2 {
		t.Errorf("rows for key 1 = %v", idxs)
	}
}

func TestViewAppendIdempotentPerKey(t *testing.T) {
	e := newEngine(t)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1), types.NewString("car"), types.NewString("a"))
	if _, err := v.Append(rows, nil); err != nil {
		t.Fatal(err)
	}
	// Re-appending the same key must not duplicate.
	n, err := v.Append(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || v.Rows() != 1 {
		t.Errorf("re-append stored %d rows, total %d", n, v.Rows())
	}
	// A key marked processed with no rows stays empty.
	if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(9)}}); err != nil {
		t.Fatal(err)
	}
	rows9 := types.NewBatch(viewSchema())
	rows9.MustAppendRow(types.NewInt(9), types.NewString("car"), types.NewString("x"))
	n, _ = v.Append(rows9, nil)
	if n != 0 {
		t.Errorf("processed-empty key gained %d rows", n)
	}
}

func TestViewPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(7), types.NewString("car"), types.NewString("b7"))
	if _, err := v.Append(rows, [][]types.Datum{{types.NewInt(8)}}); err != nil {
		t.Fatal(err)
	}
	fp := v.Footprint()
	if fp <= 0 {
		t.Fatal("footprint not tracked")
	}

	e2, _ := Open(dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Rows() != 1 || v2.ProcessedCount() != 2 {
		t.Errorf("reopened rows=%d processed=%d", v2.Rows(), v2.ProcessedCount())
	}
	if !hasKey(v2, []types.Datum{types.NewInt(8)}) {
		t.Error("processed key lost on reopen")
	}
	if got := v2.Scan().At(0, 1).Str(); got != "car" {
		t.Errorf("row content lost: %q", got)
	}
	if v2.Footprint() != fp {
		t.Errorf("footprint drifted: %d vs %d", v2.Footprint(), fp)
	}
}

func TestViewSchemaValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := e.CreateView("v", viewSchema(), []string{"ghost"}); err == nil {
		t.Error("bad key column should error")
	}
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	other := types.NewBatch(types.MustSchema(types.Column{Name: "x", Kind: types.KindInt}))
	other.MustAppendRow(types.NewInt(1))
	if _, err := v.Append(other, nil); err == nil {
		t.Error("mismatched append schema should error")
	}
	if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(1), types.NewInt(2)}}); err == nil {
		t.Error("mismatched key width should error")
	}
	// CreateView with same name and schema returns the same view.
	v2, err := e.CreateView("det", viewSchema(), []string{"id"})
	if err != nil || v2 != v {
		t.Error("CreateView not idempotent")
	}
	// Different schema conflicts.
	if _, err := e.CreateView("det", types.MustSchema(types.Column{Name: "z", Kind: types.KindInt}), []string{"z"}); err == nil {
		t.Error("schema conflict should error")
	}
}

// TestViewsAreKeyedOnID: a view whose key columns hold no INTEGER "id"
// cannot be created — not a view keyed by box alone, nor one whose "id"
// is text — and a view keyed on (bbox, id) can.
func TestViewsAreKeyedOnID(t *testing.T) {
	e := newEngine(t)
	sch := types.MustSchema(
		types.Column{Name: "bbox", Kind: types.KindString},
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "out", Kind: types.KindString},
	)
	if _, err := e.CreateView("scalar", sch, []string{"bbox"}); err == nil {
		t.Error("a view keyed by bbox alone was created")
	}
	textID := types.MustSchema(types.Column{Name: "id", Kind: types.KindString}, types.Column{Name: "out", Kind: types.KindString})
	if _, err := e.CreateView("text", textID, []string{"id"}); err == nil {
		t.Error("a view keyed on a TEXT id was created")
	}
	if _, err := e.CreateView("scalar", sch, []string{"bbox", "id"}); err != nil {
		t.Errorf("a view keyed on (bbox, id): %v", err)
	}
}

// TestAppendRejectsNullID: a row or a processed key whose id is NULL is
// an error, and the view stays as it was.
func TestAppendRejectsNullID(t *testing.T) {
	e := newEngine(t)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1), types.NewString("car"), types.NewString("x"))
	rows.MustAppendRow(types.Null, types.NewString("car"), types.NewString("y"))
	if _, err := v.Append(rows, nil); err == nil {
		t.Error("a row with a NULL id was appended")
	}
	if _, err := v.Append(nil, [][]types.Datum{{types.Null}}); err == nil {
		t.Error("a NULL processed key was appended")
	}
	if v.Rows() != 0 || v.ProcessedCount() != 0 || v.Footprint() != int64(len(v.encodeHeader())) {
		t.Errorf("a refused append left %d rows, %d keys, %d log bytes", v.Rows(), v.ProcessedCount(), v.Footprint())
	}
}

// TestDecreasingIDsAreAnInternalError: a stored batch and a probe batch
// arrive with non-decreasing ids; a batch whose ids fall — inside it, or
// below the previous probe batch's last — is errIDOrder, from Append,
// from ProbeKeys.Reset and from Probe, and the view stays as it was.
func TestDecreasingIDsAreAnInternalError(t *testing.T) {
	e := newEngine(t)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	rows := types.NewBatch(viewSchema())
	for _, id := range []int64{1, 3, 2} {
		rows.MustAppendRow(types.NewInt(id), types.NewString("car"), types.NewString("x"))
	}
	if _, err := v.Append(rows, nil); !errors.Is(err, errIDOrder) {
		t.Errorf("append of ids 1, 3, 2: %v, want %v", err, errIDOrder)
	}
	if v.Rows() != 0 || v.Footprint() != int64(len(v.encodeHeader())) {
		t.Errorf("a refused append left %d rows and %d log bytes", v.Rows(), v.Footprint())
	}
	var out Probed
	pk := idKeys(4, 2)
	if err := v.Probe(pk, []int{0, 1}, &out); !errors.Is(err, errIDOrder) {
		t.Errorf("probe of ids 4, 2: %v, want %v", err, errIDOrder)
	}
	pk = idKeys(5, 9)
	if err := v.Probe(pk, []int{0, 1}, &out); err != nil {
		t.Fatal(err)
	}
	if err := pk.Reset(idKeys(8).batch, []int{0}); !errors.Is(err, errIDOrder) {
		t.Errorf("a batch from id 8 after one up to 9: %v, want %v", err, errIDOrder)
	}
	if err := v.Probe(pk, []int{0}, &out); !errors.Is(err, errIDOrder) {
		t.Errorf("probe of the refused batch: %v, want %v", err, errIDOrder)
	}
}

func TestDropViewsAndFootprint(t *testing.T) {
	e := newEngine(t)
	v, _ := e.CreateView("a", viewSchema(), []string{"id"})
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1), types.NewString("car"), types.NewString("x"))
	if _, err := v.Append(rows, nil); err != nil {
		t.Fatal(err)
	}
	if e.TotalViewFootprint() <= 0 {
		t.Error("total footprint should be positive")
	}
	if len(e.Views()) != 1 {
		t.Error("views listing")
	}
	if err := e.DropViews(); err != nil {
		t.Fatal(err)
	}
	if len(e.Views()) != 0 || e.View("a") != nil {
		t.Error("views not dropped")
	}
	// Recreate after drop starts empty.
	v2, _ := e.CreateView("a", viewSchema(), []string{"id"})
	if v2.Rows() != 0 {
		t.Error("dropped view retained rows")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("FasterRCNN(frame)/v1"); got != "fasterrcnn_frame__v1" {
		t.Errorf("sanitize = %q", got)
	}
}
