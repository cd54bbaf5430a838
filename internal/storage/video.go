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

// Dataset returns the backing dataset descriptor.
func (v *Video) Dataset() vision.Dataset { return v.ds }

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
	if lo < 0 {
		lo = 0
	}
	if hi > v.NumFrames() {
		hi = v.NumFrames()
	}
	out := types.NewBatchCapacity(videoSchema, int(hi-lo))
	if hi <= lo {
		return out, nil
	}
	for seg := int(lo) / v.segFrames; seg <= int(hi-1)/v.segFrames; seg++ {
		batch, err := v.segment(seg)
		if err != nil {
			return nil, err
		}
		segLo := int64(seg * v.segFrames)
		from, to := lo-segLo, hi-segLo
		if from < 0 {
			from = 0
		}
		if to > int64(batch.Len()) {
			to = int64(batch.Len())
		}
		if to > from {
			if err := out.AppendBatch(batch.Slice(int(from), int(to))); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ScanInto appends frames with id in [lo, hi) to out, which must carry
// the video schema. Unlike Scan it copies rows instead of slicing the
// segment cache, so the caller fully owns out — the contract a pooled
// scan batch needs (recycling a batch that aliased the cache would let
// poisoning or reuse corrupt it).
func (v *Video) ScanInto(out *types.Batch, lo, hi int64) error {
	if lo < 0 {
		lo = 0
	}
	if hi > v.NumFrames() {
		hi = v.NumFrames()
	}
	if hi <= lo {
		return nil
	}
	for seg := int(lo) / v.segFrames; seg <= int(hi-1)/v.segFrames; seg++ {
		batch, err := v.segment(seg)
		if err != nil {
			return err
		}
		segLo := int64(seg * v.segFrames)
		from, to := lo-segLo, hi-segLo
		if from < 0 {
			from = 0
		}
		if to > int64(batch.Len()) {
			to = int64(batch.Len())
		}
		if to > from {
			if err := out.AppendRange(batch, int(from), int(to)); err != nil {
				return err
			}
		}
	}
	return nil
}

// segment loads (materializing if needed) one segment.
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
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := v.writeSegment(idx, path); err != nil {
			return nil, err
		}
	}
	b, err := readSegment(path)
	if err != nil {
		return nil, fmt.Errorf("storage: video %s segment %d: %w", v.name, idx, err)
	}
	v.cache[idx] = b
	return b, nil
}

func (v *Video) writeSegment(idx int, path string) error {
	lo := idx * v.segFrames
	hi := lo + v.segFrames
	if hi > v.ds.Frames {
		hi = v.ds.Frames
	}
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
	return writeSegment(path, batch)
}

// Segment file format: magic, version, row count, then rows of
// canonically encoded datums.
const (
	segMagic   = 0x45564153 // "EVAS"
	segVersion = 1
)

func writeSegment(path string, batch *types.Batch) error {
	buf := make([]byte, 0, 64+batch.EncodedSize())
	buf = binary.LittleEndian.AppendUint32(buf, segMagic)
	buf = append(buf, segVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batch.Len()))
	for r := 0; r < batch.Len(); r++ {
		for c := 0; c < len(batch.Schema()); c++ {
			buf = batch.At(r, c).AppendBinary(buf)
		}
	}
	// Segments are regenerable source data, outside the disk budget.
	return writeSidecar(nil, path, buf)
}

func readSegment(path string) (*types.Batch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 9 || binary.LittleEndian.Uint32(data) != segMagic {
		return nil, fmt.Errorf("bad segment header")
	}
	if data[4] != segVersion {
		return nil, fmt.Errorf("unsupported segment version %d", data[4])
	}
	n := int(binary.LittleEndian.Uint32(data[5:]))
	batch := types.NewBatchCapacity(videoSchema, n)
	off := 9
	row := make([]types.Datum, len(videoSchema))
	for r := 0; r < n; r++ {
		for c := range row {
			d, consumed, err := types.DecodeDatum(data[off:])
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", r, c, err)
			}
			row[c] = d
			off += consumed
		}
		if err := batch.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return batch, nil
}
