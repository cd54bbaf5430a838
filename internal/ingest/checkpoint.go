// Package ingest implements crash-safe streaming ingestion with
// incremental view maintenance: frames arrive over (virtual) time into
// a live video table, and registered standing queries — SELECTs with
// tumbling-window count aggregates — extend their materialized views
// incrementally from a durable per-query checkpoint instead of
// recomputing from frame zero.
//
// The failure model matches the view log (DESIGN.md §12): every
// durable artifact is a checksummed append-only log with torn-tail
// truncation on reopen, every write consults the deterministic fault
// injector at a registered site, and a crash at any point followed by
// reopen + resume replays exactly once from the checkpoint,
// byte-matching an uninterrupted run.
package ingest

import (
	"encoding/binary"
	"fmt"
	"sort"

	"eva/internal/faults"
	"eva/internal/storage"
	"eva/internal/xxhash"
)

// Checkpoint log format: header (magic, version), then records of
// [payloadLen:4][payload][xxhash64 over payload:8]. The payload is the
// standing query's full progress state — last-processed LSN plus every
// window count — so replay is last-valid-record-wins: no earlier
// record needs to survive for correctness, and the log can be
// truncated at any boundary without losing more than un-checkpointed
// progress (which the delta executor re-derives).
const (
	ckptMagic   = 0x45564143 // "EVAC"
	ckptVersion = 1

	ckptHeaderLen   = 5
	ckptRecOverhead = 12 // payloadLen + checksum
	ckptMaxPayload  = 1 << 20
	ckptStateFixed  = 12 // lsn + window count
	ckptWindowSize  = 16 // window id + count

	// ckptCompactRecords is the checkpoint log's retention tier: replay
	// is last-valid-record-wins, so once this many records have
	// accumulated the log is folded into header + one record before the
	// next append.
	ckptCompactRecords = 8
)

// ckptHeader builds the checkpoint-log header bytes.
func ckptHeader() []byte {
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, ckptHeaderLen), ckptMagic)
	return append(hdr, ckptVersion)
}

// ckptState is one standing query's durable progress: every frame with
// id < lsn has been applied to the window counts exactly once. Alerts
// are *derived* from (windows, threshold), so they need no durable
// state of their own — recomputing the alerted set from a recovered
// checkpoint reproduces it exactly.
type ckptState struct {
	lsn     int64
	windows map[int64]int64
}

// clone deep-copies the state.
func (st ckptState) clone() ckptState {
	out := ckptState{lsn: st.lsn, windows: make(map[int64]int64, len(st.windows))}
	// lint:unordered map copy; destination is a map, order-free
	for w, c := range st.windows {
		out.windows[w] = c
	}
	return out
}

// encode appends one checkpoint record for st. Windows are encoded in
// sorted order so the record bytes are a pure function of the state.
func (st ckptState) encode(buf []byte) []byte {
	payLen := ckptStateFixed + len(st.windows)*ckptWindowSize
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payLen))
	payStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.lsn))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.windows)))
	ws := make([]int64, 0, len(st.windows))
	// lint:unordered key collection; sorted below
	for w := range st.windows {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.windows[w]))
	}
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf[payStart:], 0))
}

// decodeCkptPayload rebuilds a state from one record payload.
func decodeCkptPayload(pay []byte) (ckptState, error) {
	if len(pay) < ckptStateFixed {
		return ckptState{}, fmt.Errorf("payload too short (%d bytes)", len(pay))
	}
	st := ckptState{lsn: int64(binary.LittleEndian.Uint64(pay))}
	n := int(binary.LittleEndian.Uint32(pay[8:]))
	if st.lsn < 0 || n < 0 || ckptStateFixed+n*ckptWindowSize != len(pay) {
		return ckptState{}, fmt.Errorf("inconsistent payload (lsn %d, %d windows, %d bytes)", st.lsn, n, len(pay))
	}
	st.windows = make(map[int64]int64, n)
	off := ckptStateFixed
	for i := 0; i < n; i++ {
		w := int64(binary.LittleEndian.Uint64(pay[off:]))
		c := int64(binary.LittleEndian.Uint64(pay[off+8:]))
		if c <= 0 {
			return ckptState{}, fmt.Errorf("window %d has non-positive count %d", w, c)
		}
		if _, dup := st.windows[w]; dup {
			return ckptState{}, fmt.Errorf("duplicate window %d", w)
		}
		st.windows[w] = c
		off += ckptWindowSize
	}
	return st, nil
}

// replayCheckpoints scans a checkpoint log, returning the valid-prefix
// length, the last durable state, and the number of intact records. An
// incomplete or checksum-failing tail record is a crash mid-write and
// stops replay at the last good boundary; a *decoding* failure of a
// checksum-valid payload is a writer bug and a hard error.
func replayCheckpoints(data []byte) (valid int, st ckptState, recs int, err error) {
	if len(data) < ckptHeaderLen || binary.LittleEndian.Uint32(data) != ckptMagic {
		return 0, st, 0, fmt.Errorf("bad checkpoint header")
	}
	if data[4] != ckptVersion {
		return 0, st, 0, fmt.Errorf("unsupported checkpoint version %d", data[4])
	}
	off := ckptHeaderLen
	for off+ckptRecOverhead <= len(data) {
		payLen := int(binary.LittleEndian.Uint32(data[off:]))
		if payLen < 0 || payLen > ckptMaxPayload {
			return off, st, recs, nil
		}
		end := off + 4 + payLen + 8
		if end > len(data) {
			return off, st, recs, nil
		}
		pay := data[off+4 : off+4+payLen]
		if xxhash.Sum64(pay, 0) != binary.LittleEndian.Uint64(data[end-8:]) {
			return off, st, recs, nil
		}
		next, derr := decodeCkptPayload(pay)
		if derr != nil {
			return 0, st, 0, fmt.Errorf("checkpoint record %d: %w", recs, derr)
		}
		if next.lsn < st.lsn {
			return 0, st, 0, fmt.Errorf("checkpoint lsn regressed %d -> %d", st.lsn, next.lsn)
		}
		st = next
		recs++
		off = end
	}
	return off, st, recs, nil
}

// checkpointLog is the durable progress file of one standing query: a
// storage.TailLog (which owns the file, the write protocol and the disk
// accounting) plus the record schema — the last durable state and how
// many records the log holds. It is owned by the stream's pump
// goroutine; no locking.
type checkpointLog struct {
	log  *storage.TailLog
	st   ckptState
	recs int
}

// openCheckpoint opens (or creates) a standing query's checkpoint log,
// recovering the last durable state and truncating a torn tail. store
// supplies the disk budget and the reclaim ladder (nil in unit tests:
// no budget, no eviction) and charge the retry backoff run before each
// disk-full retry (nil charges nothing).
func openCheckpoint(path, site string, store *storage.Engine, charge func(attempt int)) (*checkpointLog, error) {
	c := &checkpointLog{st: ckptState{windows: map[int64]int64{}}}
	var budget *storage.DiskBudget
	if store != nil {
		budget = store.Budget()
	}
	log, err := storage.OpenTailLog(path, "ingest: checkpoint "+path, site, ckptHeader(), budget, func(data []byte) (int, error) {
		valid, st, recs, rerr := replayCheckpoints(data)
		if rerr != nil {
			return 0, rerr
		}
		if st.windows == nil {
			st.windows = map[int64]int64{}
		}
		c.st, c.recs = st, recs
		return valid, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: checkpoint %s: %w", path, err)
	}
	log.Attach(store, "", charge, c.fold)
	c.log = log
	return c, nil
}

// write durably records st, consulting the injector at the query's
// checkpoint site keyed by the state's LSN. Transient and permanent
// faults roll the log back (nothing durable changed, safe to retry);
// a simulated crash leaves the torn tail for the next open and kills
// the handle; disk pressure runs the reclaim ladder between attempts
// (the pump owns this log and holds no storage locks, so the ladder is
// safe). The in-memory state advances only on success.
func (c *checkpointLog) write(st ckptState, inj *faults.Injector) error {
	return c.log.Retry(func() error {
		// Retention tier: fold a long log down before appending more.
		// Best-effort — a failed fold leaves the old log intact.
		if c.recs >= ckptCompactRecords {
			_ = c.fold() // lint:noerrcheck best-effort fold; append still valid on old log
		}
		rec := st.encode(make([]byte, 0, ckptRecOverhead+ckptStateFixed+len(st.windows)*ckptWindowSize))
		if err := c.log.Append(rec, uint64(st.lsn), inj); err != nil {
			return err
		}
		c.st = st.clone()
		c.recs++
		return nil
	})
}

// fold folds the checkpoint log to its minimal form: header plus (once
// any progress exists) one record of the committed state.
func (c *checkpointLog) fold() error {
	img, recs := ckptHeader(), 0
	if c.st.lsn > 0 || len(c.st.windows) > 0 {
		img, recs = c.st.encode(img), 1
	}
	err := c.log.Fold(img)
	if err == nil {
		c.recs = recs
	}
	return err
}

// close releases the file handle. Idempotent.
func (c *checkpointLog) close() error { return c.log.Close() }
