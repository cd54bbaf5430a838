package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"eva/internal/types"
	"eva/internal/vision"
)

// defaultSegmentFrames is the number of frames per on-disk segment.
const defaultSegmentFrames = 500

// videoSchema mirrors catalog.VideoSchema without importing the
// catalog (storage sits below it in the dependency order).
var videoSchema = types.MustSchema( // lint:invariant three literal, distinct column names
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "seconds", Kind: types.KindFloat},
	types.Column{Name: "frame", Kind: types.KindBytes},
)

// framesPerSecond converts frame ids to the seconds column.
const framesPerSecond = 30.0

// Video is an on-disk video table: fixed-size segments of encoded
// frames, materialized lazily from the synthetic dataset on first
// access (the moral equivalent of LOAD VIDEO decoding into Parquet).
type Video struct {
	name      string
	dir       string
	ds        vision.Dataset
	segFrames int
	// live marks a streaming table (see live.go): frames become
	// visible as the durable watermark advances rather than all at
	// once.
	live bool

	mu    sync.Mutex
	cache map[int]*types.Batch // guarded by mu; segment index -> decoded batch
	// stats is the optimizer statistics the table record holds, opaque
	// to storage; nil when the directory has no valid record yet.
	stats []byte // guarded by mu
	// Streaming state (live tables only; see live.go): the durable
	// watermark in frames, and the log that keeps it. The pointer is
	// fixed at open; what it points to is guarded by mu.
	wm  int64    // guarded by mu
	wal *TailLog // guarded by mu
}

// Name returns the table name.
func (v *Video) Name() string { return v.name }

// NumFrames returns the number of visible frames: the full dataset for
// a batch table, the durable watermark for a live one (scans never
// read past what has been durably ingested).
func (v *Video) NumFrames() int64 {
	if !v.live {
		return int64(v.ds.Frames)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.wm
}

// Schema returns the video table schema.
func (v *Video) Schema() types.Schema { return videoSchema }

// VirtualBytes returns the simulated decoded dataset size (RGB24),
// the denominator of the §5.2 storage-overhead ratio.
func (v *Video) VirtualBytes() int64 {
	return int64(v.ds.Frames) * int64(v.ds.VirtualFrameBytes())
}

// Scan returns frames with id in [lo, hi) as one batch.
func (v *Video) Scan(lo, hi int64) (*types.Batch, error) {
	out := types.NewBatchCapacity(videoSchema, int(max(0, min(hi, v.NumFrames())-max(lo, 0))))
	if err := v.ScanInto(out, lo, hi); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanInto appends frames with id in [lo, hi) to out, which must carry
// the video schema. Unlike Scan it copies rows instead of slicing the
// segment cache, so the caller fully owns out — the contract a pooled
// scan batch needs (recycling a batch that aliased the cache would let
// poisoning or reuse corrupt it).
func (v *Video) ScanInto(out *types.Batch, lo, hi int64) error {
	lo, hi = max(lo, 0), min(hi, v.NumFrames())
	if hi <= lo {
		return nil
	}
	for seg := int(lo) / v.segFrames; seg <= int(hi-1)/v.segFrames; seg++ {
		batch, err := v.segment(seg)
		if err != nil {
			return err
		}
		segLo := int64(seg * v.segFrames)
		from, to := max(lo-segLo, 0), min(hi-segLo, int64(batch.Len()))
		if to > from {
			if err := out.AppendRange(batch, int(from), int(to)); err != nil {
				return err
			}
		}
	}
	return nil
}

// segment loads (materializing if needed) one segment. A segment file
// that fails its frame check — missing, torn, rotted, or written in
// version 1, which had no checksum — or does not decode is regenerated
// from the dataset: segments are derived source data, so a bad one
// costs a rewrite, not a scan error.
func (v *Video) segment(idx int) (*types.Batch, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cache == nil {
		v.cache = map[int]*types.Batch{}
	}
	if b, ok := v.cache[idx]; ok {
		return b, nil
	}
	path := filepath.Join(v.dir, fmt.Sprintf("seg-%06d.bin", idx))
	for regenerated := false; ; regenerated = true {
		data, _ := os.ReadFile(path)
		if b, ok := readSegment(data); ok {
			v.cache[idx] = b
			return b, nil
		}
		if regenerated {
			return nil, fmt.Errorf("storage: video %s segment %d: unreadable after regeneration", v.name, idx)
		}
		if err := v.writeSegment(idx, path); err != nil {
			return nil, err
		}
	}
}

// Segment file (a sealed segFile, DESIGN.md §20): the body is the row
// count, then the rows of canonically encoded datums.

// writeSegment materializes segment idx from the dataset and writes it
// to path.
func (v *Video) writeSegment(idx int, path string) error {
	lo := idx * v.segFrames
	hi := min(lo+v.segFrames, v.ds.Frames)
	if lo >= hi {
		return fmt.Errorf("storage: segment %d out of range", idx)
	}
	batch := types.NewBatchCapacity(videoSchema, hi-lo)
	for f := lo; f < hi; f++ {
		if err := batch.AppendRow(
			types.NewInt(int64(f)),
			types.NewFloat(float64(f)/framesPerSecond),
			types.NewBytes(v.ds.EncodeFrame(int64(f))),
		); err != nil {
			return fmt.Errorf("storage: video %s segment %d: %w", v.name, idx, err)
		}
	}
	buf := binary.LittleEndian.AppendUint32(beginFile(make([]byte, 0, 64+batch.EncodedSize()), segFile), uint32(batch.Len()))
	for r := 0; r < batch.Len(); r++ {
		for c := range videoSchema {
			buf = batch.At(r, c).AppendBinary(buf)
		}
	}
	// Segments are regenerable source data, outside the disk budget.
	return writeFileAtomic(path, sealFile(buf))
}

// readSegment rebuilds a segment's frames from its file, or reports
// false when the file fails its frame check or its body does not decode
// to exactly its row count. The batch is sized from what the verified
// body can hold — no encoded row is shorter than one byte per column —
// never from the count alone.
func readSegment(data []byte) (*types.Batch, bool) {
	body, ok := openSealed(data, segFile)
	if !ok || len(body) < 4 {
		return nil, false
	}
	n, rows := int(binary.LittleEndian.Uint32(body)), body[4:]
	batch := types.NewBatchCapacity(videoSchema, min(n, len(rows)/len(videoSchema)))
	used, err := batch.AppendEncoded(rows, n)
	return batch, err == nil && used == len(rows)
}

// The table record (a sealed tableFile beside the segments, DESIGN.md
// §20) says which dataset a video directory was built from and keeps the
// table's optimizer statistics, so a reopen neither answers from another
// dataset's frames nor re-samples the world. Its body is the dataset
// descriptor — [len:4][name] then frames, width, height, the density's
// float64 bits and the seed, 8 bytes each — followed by the statistics
// as the catalog encodes them. Like a segment it is derived data,
// written outside the disk budget and without fault draws: a record that
// fails its frame check or does not decode is as good as none, and the
// next SaveStats replaces it.

// ErrDatasetMismatch reports a video directory whose table record names
// another dataset than the one being loaded into it: its segments and
// views were built from other frames.
var ErrDatasetMismatch = errors.New("storage: video directory holds another dataset")

// descFixedLen is the byte length of a descriptor's fixed part: frames,
// width, height, density bits and seed.
const descFixedLen = 5 * 8

// tablePath returns the table-record path inside a video directory.
func tablePath(dir string) string { return filepath.Join(dir, "table.rec") }

// appendDataset appends the descriptor encoding of ds to buf.
func appendDataset(buf []byte, ds vision.Dataset) []byte {
	buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(ds.Name))), ds.Name...)
	for _, w := range [...]uint64{uint64(ds.Frames), uint64(ds.Width), uint64(ds.Height), math.Float64bits(ds.Density), ds.Seed} {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// readTable reads the table record of dir for a table being opened over
// ds: see parseTable. A directory with no record that verifies is held to
// ds by its segments instead (checkSegments), before the caller stamps it
// with a record of ds.
func readTable(dir, name string, ds vision.Dataset) ([]byte, error) {
	data, _ := os.ReadFile(tablePath(dir))
	stats, err := parseTable(data, name, ds)
	if stats == nil && err == nil {
		err = checkSegments(dir, name, ds)
	}
	return stats, err
}

// checkSegments is ErrDatasetMismatch when the first segment of dir that
// verifies starts with a frame ds does not render: the directory, and the
// views beside it, were built from another dataset. A directory without
// such a segment has nothing to compare.
func checkSegments(dir, name string, ds vision.Dataset) error {
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.bin"))
	for _, p := range segs {
		data, _ := os.ReadFile(p)
		b, ok := readSegment(data)
		if !ok || b.Len() == 0 {
			continue
		}
		id, frame := b.At(0, 0), b.At(0, 2)
		if id.Kind() == types.KindInt && frame.Kind() == types.KindBytes && bytes.Equal(frame.Bytes(), ds.EncodeFrame(id.Int())) {
			return nil
		}
		return fmt.Errorf("%w: table %s holds frames %s does not render", ErrDatasetMismatch, name, describe(ds))
	}
	return nil
}

// parseTable returns the statistics the table record data holds for a
// table being opened over ds: nil when data fails its frame check or
// does not decode, ErrDatasetMismatch when it verifies but describes
// another dataset. The descriptor encoding is prefix-free (the name
// carries its length), so a body that starts with ds's is ds's.
func parseTable(data []byte, name string, ds vision.Dataset) ([]byte, error) {
	body, ok := openSealed(data, tableFile)
	if !ok {
		return nil, nil
	}
	if want := appendDataset(nil, ds); bytes.HasPrefix(body, want) {
		return body[len(want):], nil
	}
	held, ok := decodeDataset(body)
	if !ok {
		return nil, nil
	}
	return nil, fmt.Errorf("%w: table %s was loaded from %s, not %s", ErrDatasetMismatch, name, describe(held), describe(ds))
}

// tableImage is the table record of a table over ds whose statistics
// encode as stats.
func tableImage(ds vision.Dataset, stats []byte) []byte {
	buf := appendDataset(beginFile(make([]byte, 0, preambleLen+4+len(ds.Name)+descFixedLen+len(stats)+recSumLen), tableFile), ds)
	return sealFile(append(buf, stats...))
}

// decodeDataset reads the descriptor a table record's body starts with.
func decodeDataset(body []byte) (vision.Dataset, bool) {
	if len(body) < 4 {
		return vision.Dataset{}, false
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > len(body)-4-descFixedLen {
		return vision.Dataset{}, false
	}
	w := body[4+n:]
	return vision.Dataset{
		Name:    string(body[4 : 4+n]),
		Frames:  int(binary.LittleEndian.Uint64(w)),
		Width:   int(binary.LittleEndian.Uint64(w[8:])),
		Height:  int(binary.LittleEndian.Uint64(w[16:])),
		Density: math.Float64frombits(binary.LittleEndian.Uint64(w[24:])),
		Seed:    binary.LittleEndian.Uint64(w[32:]),
	}, true
}

func describe(ds vision.Dataset) string {
	return fmt.Sprintf("%q (%d frames, %dx%d, density %g, seed %#x)", ds.Name, ds.Frames, ds.Width, ds.Height, ds.Density, ds.Seed)
}

// Stats returns the optimizer statistics the table record holds, or nil
// when the directory has none: it had no record, the record failed its
// check, or it was written before records existed. The bytes are the
// catalog's; the caller must not modify them.
func (v *Video) Stats() []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// SaveStats writes the table record: this table's dataset descriptor and
// stats, the catalog's encoding of its statistics. Like a segment it is
// written whole or not at all, outside the disk budget.
func (v *Video) SaveStats(stats []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := writeFileAtomic(tablePath(v.dir), tableImage(v.ds, stats)); err != nil {
		return fmt.Errorf("storage: video %s: write table record: %w", v.name, err)
	}
	v.stats = stats
	return nil
}
