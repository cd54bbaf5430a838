package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"eva/internal/faults"
	"eva/internal/vision"
	"eva/internal/xxhash"
)

// Live video tables are the streaming ingest substrate: frames arrive
// over (virtual) time and become visible to queries only once durable.
// Because every frame's content is a deterministic function of the
// dataset descriptor and the frame id, the only state that needs crash
// safety is the *watermark* — the count of durably ingested frames —
// kept in a checksummed append-only log next to the segments, with the
// same torn-tail truncation discipline as the view log. A crash
// mid-append leaves the watermark at the last durable record; the
// producer re-sends from there and the table converges byte-identically
// to an uninterrupted run.
//
// Watermark log format: header (magic, version), then fixed-size
// records [watermark:8][xxhash64 over the watermark bytes:8].
const (
	wmMagic   = 0x45564157 // "EVAW"
	wmVersion = 1

	wmHeaderLen = 5
	wmRecLen    = 16

	// wmCompactRecords is the watermark log's retention tier: replay is
	// last-record-wins, so once this many records have accumulated the
	// log is folded into header + one record (scratch + rename) before
	// the next append — bounded history, bounded disk.
	wmCompactRecords = 64
)

// wmPath returns the watermark-log path inside a video directory.
func wmPath(dir string) string { return filepath.Join(dir, "ingest.wal") }

// wmHeader builds the watermark-log header bytes.
func wmHeader() []byte {
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, wmHeaderLen), wmMagic)
	return append(hdr, wmVersion)
}

// wmRecord appends one checksummed watermark record.
func wmRecord(buf []byte, wm int64) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(wm))
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf[start:], 0))
}

// OpenLiveVideo registers (or reopens) a streaming video table whose
// frames arrive over time, up to the dataset's capacity. On reopen the
// durable watermark is recovered from the checksummed log, truncating
// a torn tail left by a crash mid-append.
func (e *Engine) OpenLiveVideo(name string, ds vision.Dataset) (*Video, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key, dir, err := e.videoDirLocked(name)
	if err != nil {
		return nil, err
	}
	v := &Video{name: name, dir: dir, ds: ds, segFrames: defaultSegmentFrames, live: true}
	v.wal, err = OpenTailLog(wmPath(dir), "storage: live video "+name, faults.SiteIngestAppend(name), wmHeader(), e.budget, func(data []byte) (int, error) { // lint:nolock pre-publish (OpenLiveVideo)
		valid, wm, rerr := replayWatermarks(data)
		if rerr != nil {
			return 0, rerr
		}
		if int(wm) > ds.Frames {
			return 0, fmt.Errorf("watermark %d past capacity %d", wm, ds.Frames)
		}
		v.wm = wm // lint:nolock pre-publish (OpenLiveVideo)
		return valid, nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: live video %s: %w", name, err)
	}
	v.wal.Attach(e, "", e.chargeRetry, v.foldLocked) // lint:nolock pre-publish (OpenLiveVideo)
	e.videos[key] = v
	return v, nil
}

// replayWatermarks returns the valid-prefix length of a watermark log
// and the last durable watermark. Like the view log, an incomplete or
// checksum-failing tail record marks a crash mid-append and stops
// replay at the last good boundary; a decreasing watermark is a writer
// bug and a hard error.
func replayWatermarks(data []byte) (valid int, wm int64, err error) {
	if len(data) < wmHeaderLen || binary.LittleEndian.Uint32(data) != wmMagic {
		return 0, 0, fmt.Errorf("bad watermark-log header")
	}
	if data[4] != wmVersion {
		return 0, 0, fmt.Errorf("unsupported watermark-log version %d", data[4])
	}
	off := wmHeaderLen
	for off+wmRecLen <= len(data) {
		next := int64(binary.LittleEndian.Uint64(data[off:]))
		sum := binary.LittleEndian.Uint64(data[off+8:])
		if xxhash.Sum64(data[off:off+8], 0) != sum {
			return off, wm, nil
		}
		if next < wm {
			return 0, 0, fmt.Errorf("watermark regressed %d -> %d", wm, next)
		}
		wm = next
		off += wmRecLen
	}
	return off, wm, nil
}

// AppendFrames durably advances the watermark by n frames, making them
// visible to scans. It consults the injector at the table's
// ingest-append site, keyed by the pre-append watermark (the LSN of
// the first new frame): transient and permanent faults roll the log
// back (nothing applied, safe to retry); a simulated crash leaves the
// torn tail on disk and kills the handle, like a view write. Disk
// pressure runs the reclaim ladder between attempts, with v.mu released
// (TailLog.Retry). It returns the durable watermark.
func (v *Video) AppendFrames(n int, inj *faults.Injector) (wm int64, err error) {
	if !v.live {
		return 0, fmt.Errorf("storage: video %s: not a live table", v.name)
	}
	err = v.wal.Retry(func() (err error) { // lint:nolock the pointer is fixed at open
		v.mu.Lock()
		defer v.mu.Unlock()
		err = v.advanceLocked(n, inj)
		wm = v.wm
		return err
	})
	return wm, err
}

// advanceLocked is one attempt at moving the watermark n frames on.
// Callers hold mu.
func (v *Video) advanceLocked(n int, inj *faults.Injector) error {
	if err := v.wal.check(); err != nil || n <= 0 {
		return err
	}
	if v.wm+int64(n) > int64(v.ds.Frames) {
		return fmt.Errorf("storage: live video %s: append past capacity (%d + %d > %d)", v.name, v.wm, n, v.ds.Frames)
	}
	// Retention tier: replay is last-record-wins, so fold a long log
	// into header + one record before appending more. Best-effort — a
	// failed fold leaves the old log intact and the append proceeds.
	if v.wal.footprint >= int64(wmHeaderLen+wmCompactRecords*wmRecLen) {
		_ = v.foldLocked() // lint:noerrcheck best-effort fold; append still valid on old log
	}
	rec := wmRecord(make([]byte, 0, wmRecLen), v.wm+int64(n))
	if err := v.wal.Append(rec, uint64(v.wm), inj); err != nil {
		return err
	}
	v.wm += int64(n)
	return nil
}

// foldLocked folds the watermark log to its minimal form: header plus
// (if any frames are durable) one record. Callers hold mu.
func (v *Video) foldLocked() error {
	img := wmHeader()
	if v.wm > 0 {
		img = wmRecord(img, v.wm)
	}
	return v.wal.Fold(img)
}

// setBudget installs (or replaces) the disk budget on an already-open
// table; a live one charges its watermark log.
func (v *Video) setBudget(b *DiskBudget) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.live {
		v.wal.setBudget(b)
	}
}

// Live reports whether this is a streaming table.
func (v *Video) Live() bool { return v.live }

// Watermark returns the durable frame count of a live table.
func (v *Video) Watermark() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.wm
}

// Capacity returns the dataset's total frame count — the ceiling the
// watermark can reach.
func (v *Video) Capacity() int64 { return int64(v.ds.Frames) }

// closeLive closes the watermark log handle. Idempotent.
func (v *Video) closeLive() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.live {
		return nil
	}
	return v.wal.Close()
}

// CheckpointPath returns (creating the directory if needed) the
// durable checkpoint file path for a standing query.
func (e *Engine) CheckpointPath(name string) (string, error) {
	dir := filepath.Join(e.root, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, sanitize(strings.ToLower(name))+".ckpt"), nil
}
