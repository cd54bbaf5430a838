package storage

import (
	"encoding/binary"
	"fmt"
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
