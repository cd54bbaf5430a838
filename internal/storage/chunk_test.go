package storage

import (
	"slices"
	"testing"
	"unsafe"

	"eva/internal/types"
)

// forceLayout makes view chunks 1<<shift rows long and files keys under
// hash for the rest of the test: the two layout constants a test may
// bend, to put chunk boundaries and hash collisions where it can see
// them.
func forceLayout(t *testing.T, shift int, hash func([]byte) uint64) {
	oldShift, oldHash := chunkShift, hashKey
	chunkShift, hashKey = shift, hash
	t.Cleanup(func() { chunkShift, hashKey = oldShift, oldHash })
}

// probeIDs probes v for the integer ids, ascending, and returns, per id,
// the labels of its rows in stored order (nil and false for an
// unprocessed id).
func probeIDs(t *testing.T, v *View, ids ...int64) (labels [][]string, found []bool) {
	t.Helper()
	sel := make([]int, len(ids))
	for i := range sel {
		sel[i] = i
	}
	var out Probed
	if err := v.Probe(idKeys(ids...), sel, &out); err != nil {
		t.Fatal(err)
	}
	labels, found = make([][]string, len(ids)), make([]bool, len(ids))
	for i := range found {
		// A covered probe found every key, and hits the ones with rows.
		found[i] = out.Covered
	}
	for _, h := range out.Hits {
		found[h.Key] = true
		for i := h.Lo; i < h.Hi; i++ {
			if got := out.Srcs[i].At(out.Rows[i], 0).Int(); got != ids[h.Key] {
				t.Fatalf("id %d was served a row of id %d", ids[h.Key], got)
			}
			labels[h.Key] = append(labels[h.Key], out.Srcs[i].At(out.Rows[i], 1).Str())
		}
	}
	return labels, found
}

// TestViewChunkBoundaries forces four-row chunks: one key's rows
// straddle a chunk boundary, a key is processed with no rows, and both
// read back — through the probe, Scan, a reopen (replay straddles the
// same boundary inside one record) and a compaction — exactly as stored.
// Then the probe oracle and the probe-under-append race run on the same
// tiny chunks, where nearly every append crosses a boundary.
func TestViewChunkBoundaries(t *testing.T) {
	forceLayout(t, 2, hashKey)
	dir := t.TempDir()
	e, v := openDet(t, dir)
	rows := types.NewBatch(viewSchema())
	for _, r := range []struct {
		id    int64
		label string
	}{{1, "a"}, {1, "b"}, {1, "c"}, {2, "d"}, {2, "e"}, {2, "f"}, {4, "g"}} {
		rows.MustAppendRow(types.NewInt(r.id), types.NewString(r.label), types.NewString("box"))
	}
	if n, err := v.Append(rows, [][]types.Datum{{types.NewInt(3)}}); err != nil || n != 7 {
		t.Fatalf("append = %d, %v", n, err)
	}
	check := func(v *View, step string) {
		t.Helper()
		labels, found := probeIDs(t, v, 1, 2, 3, 4, 5)
		want := [][]string{{"a", "b", "c"}, {"d", "e", "f"}, nil, {"g"}, nil}
		for i := range want {
			if found[i] != (i < 4) || !slices.Equal(labels[i], want[i]) {
				t.Errorf("%s: id %d: found %v with rows %v, want %v", step, i+1, found[i], labels[i], want[i])
			}
		}
		if len(v.rows.chunks) != 2 || v.Rows() != 7 || v.ProcessedCount() != 4 {
			t.Errorf("%s: %d chunks, %d rows, %d keys; want 2, 7, 4", step, len(v.rows.chunks), v.Rows(), v.ProcessedCount())
		}
		if a, b := v.rows.at(3); a != v.rows.chunks[0] || b != 3 {
			t.Errorf("%s: row 3 is not the last row of chunk 0", step)
		}
		if a, b := v.rows.at(4); a != v.rows.chunks[1] || b != 0 {
			t.Errorf("%s: row 4 is not the first row of chunk 1", step)
		}
		scan := v.Scan()
		for r, label := range []string{"a", "b", "c", "d", "e", "f", "g"} {
			if scan.Len() != 7 || scan.At(r, 1).Str() != label {
				t.Fatalf("%s: Scan row %d of %d = %v, want %q", step, r, scan.Len(), scan.At(r, 1), label)
			}
		}
	}
	check(v, "appended")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, v = openDet(t, dir)
	check(v, "reopened")
	if _, err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	check(v, "compacted")

	probeOracleTrials(t, 6)
	probeUnderAppend(t)
}

// TestKeyIndexCollisions files every key under one hash, so the key
// columns alone tell keys apart — in the probe, and in the per-id dedup
// of a stored batch (IDKeys): keys with rows, a key with none and an
// absent key are each answered for themselves; then the probe oracle —
// random appends, a scrubbed hole, an eviction and the rebuilds that
// follow — runs on the same degenerate hash.
func TestKeyIndexCollisions(t *testing.T) {
	forceLayout(t, chunkShift, func([]byte) uint64 { return 0 })
	_, v := openDet(t, t.TempDir())
	for id := int64(0); id < 40; id += 2 {
		if _, err := v.Append(mkRows(id), [][]types.Datum{{types.NewInt(id + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 42; id++ {
		labels, found := probeIDs(t, v, id)
		switch {
		case id >= 40 && found[0]:
			t.Errorf("id %d was never processed and was found", id)
		case id < 40 && (!found[0] || len(labels[0]) != int(1-id%2)):
			t.Errorf("id %d: found %v with %d rows", id, found[0], len(labels[0]))
		}
	}
	if v.ProcessedCount() != 40 {
		t.Errorf("ProcessedCount = %d, want 40", v.ProcessedCount())
	}
	probeOracleTrials(t, 6)
}

// TestViewKeyLayout: a key's row count fills the padding after its first
// row, so a listed key stays three words.
func TestViewKeyLayout(t *testing.T) {
	if n := unsafe.Sizeof(viewKey{}); n != 24 {
		t.Fatalf("viewKey is %d bytes, want 24", n)
	}
}

// TestProbeKeysDrop: a ProbeKeys dropped between statements keeps no
// batch or column alive and checks the id order of the next batch it is
// reset with afresh, while the storage it grew stays.
func TestProbeKeysDrop(t *testing.T) {
	keys := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "bbox", Kind: types.KindString}}
	b := types.NewBatch(keys)
	for id := int64(10); id < 20; id++ {
		b.MustAppendRow(types.NewInt(id), types.NewString("0.1,0.1,0.2,0.2"))
	}
	var pk ProbeKeys
	if err := pk.Reset(b, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	pk.Drop()
	if pk.batch != nil || pk.keyIdx != nil || len(pk.rest) != 0 || slices.ContainsFunc(pk.rest[:cap(pk.rest)], func(c []types.Datum) bool { return c != nil }) {
		t.Fatal("a dropped ProbeKeys still holds its batch or a column of it")
	}
	if cap(pk.Hashes) < b.Len() {
		t.Fatalf("Drop released the hashes' storage: cap %d", cap(pk.Hashes))
	}
	lower := types.NewBatch(keys)
	lower.MustAppendRow(types.NewInt(1), types.NewString("0.1,0.1,0.2,0.2"))
	if err := pk.Reset(lower, []int{0, 1}); err != nil {
		t.Fatalf("the first batch after Drop: %v", err)
	}
}
