package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"eva/internal/faults"
	"eva/internal/vision"
)

// Live video tables are the streaming ingest substrate: frames arrive
// over (virtual) time and become visible to queries only once durable.
// Because every frame's content is a deterministic function of the
// dataset descriptor and the frame id, the only state that needs crash
// safety is the *watermark* — the count of durably ingested frames —
// kept in a state log next to the segments (OpenStateLog; DESIGN.md §20),
// with the same torn-tail truncation and salvage as the view log. A
// crash mid-append leaves the watermark at the last durable record; the
// producer re-sends from there and the table converges byte-identically
// to an uninterrupted run.
//
// A watermark state is the frame count as 8 little-endian bytes.
const (
	// wmRecLen is one watermark record: the 8-byte state in its frame.
	wmRecLen = recHeaderLen + 8 + recSumLen

	// wmCompactRecords is the watermark log's retention tier: replay is
	// last-record-wins, so once this many records' bytes have accumulated
	// the log is folded into header + one record (scratch + rename)
	// before the next append — bounded history, bounded disk.
	wmCompactRecords = 64
)

// wmPath returns the watermark-log path inside a video directory.
func wmPath(dir string) string { return filepath.Join(dir, "ingest.wal") }

// wmState encodes a watermark as its state payload.
func wmState(wm int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(wm)) }

// OpenLiveVideo registers (or reopens) a streaming video table whose
// frames arrive over time, up to the dataset's capacity. On reopen the
// durable watermark is recovered from its log, truncating a torn tail
// left by a crash mid-append. A watermark that regresses or passes the
// capacity is a writer bug and fails the open. The table record is read
// as CreateVideo reads it, once the watermark log has opened: a log that
// outgrew the capacity asked for is reported as that, before the record
// says the dataset differs.
func (e *Engine) OpenLiveVideo(name string, ds vision.Dataset) (*Video, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key, dir, err := e.videoDirLocked(name)
	if err != nil {
		return nil, err
	}
	v := &Video{name: name, dir: dir, ds: ds, segFrames: defaultSegmentFrames, live: true}
	v.wal, err = OpenStateLog(wmPath(dir), "storage: live video "+name, faults.SiteIngestAppend(name), wmLog, e.budget, func(state []byte) error { // lint:nolock pre-publish (OpenLiveVideo)
		if len(state) != 8 {
			return fmt.Errorf("watermark record of %d bytes", len(state))
		}
		wm := int64(binary.LittleEndian.Uint64(state))
		switch {
		case wm < v.wm: // lint:nolock pre-publish (OpenLiveVideo)
			return fmt.Errorf("watermark regressed %d -> %d", v.wm, wm)
		case wm > int64(ds.Frames):
			return fmt.Errorf("watermark %d past capacity %d", wm, ds.Frames)
		}
		v.wm = wm // lint:nolock pre-publish (OpenLiveVideo)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: live video %s: %w", name, err)
	}
	if v.stats, err = readTable(dir, name, ds); err != nil { // lint:nolock pre-publish (OpenLiveVideo)
		_ = v.wal.Close() // lint:nolock pre-publish (OpenLiveVideo)
		return nil, err
	}
	v.wal.Attach(v.foldLocked) // lint:nolock pre-publish (OpenLiveVideo)
	e.videos[key] = v
	return v, nil
}

// AppendFrames durably advances the watermark by n frames, making them
// visible to scans. It consults the injector at the table's
// ingest-append site, keyed by the pre-append watermark (the LSN of
// the first new frame): transient and permanent faults roll the log
// back (nothing applied, safe to retry); a simulated crash leaves the
// torn tail on disk and kills the handle, like a view write. It is one
// attempt: the caller runs it under Engine.Retry, whose reclaim ladder
// makes room between attempts with v.mu released. It returns the
// durable watermark.
func (v *Video) AppendFrames(n int, inj *faults.Injector) (int64, error) {
	if !v.live {
		return 0, fmt.Errorf("storage: video %s: not a live table", v.name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	err := v.advanceLocked(n, inj)
	return v.wm, err
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
	if v.wal.footprint >= preambleLen+wmCompactRecords*wmRecLen {
		_ = v.foldLocked() // lint:noerrcheck best-effort fold; append still valid on old log
	}
	if err := v.wal.AppendState(wmState(v.wm+int64(n)), uint64(v.wm), inj); err != nil {
		return err
	}
	v.wm += int64(n)
	return nil
}

// foldLocked folds the watermark log to its minimal form: header plus
// (if any frames are durable) one record. Callers hold mu.
func (v *Video) foldLocked() error {
	var state []byte
	if v.wm > 0 {
		state = wmState(v.wm)
	}
	return v.wal.FoldState(state)
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

// Watermark returns the durable frame count of a live table.
func (v *Video) Watermark() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.wm
}

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
