// Package ingest implements crash-safe streaming ingestion with
// incremental view maintenance: frames arrive over (virtual) time into
// a live video table, and registered standing queries — SELECTs with
// tumbling-window count aggregates — extend their materialized views
// incrementally from a durable per-query checkpoint instead of
// recomputing from frame zero.
//
// The failure model matches the view log (DESIGN.md §12): every
// durable artifact is a record log in the frame layout of §20, with
// torn-tail truncation and salvage on reopen, every write consults the
// deterministic fault injector at a registered site, and a crash at any
// point followed by reopen + resume replays exactly once from the
// checkpoint, byte-matching an uninterrupted run.
package ingest

import (
	"encoding/binary"
	"fmt"
	"sort"

	"eva/internal/faults"
	"eva/internal/storage"
)

// Checkpoint log: a storage.CheckpointLog state log (DESIGN.md §20)
// whose state is the standing query's full progress — last-processed
// LSN, window count, then every (window id, count) — so replay is
// last-valid-record-wins: no earlier record needs to survive for
// correctness, and the log can be truncated at any boundary without
// losing more than un-checkpointed progress (which the delta executor
// re-derives).
const (
	ckptStateFixed = 12 // lsn + window count
	ckptWindowSize = 16 // window id + count

	// ckptCompactRecords is the checkpoint log's retention tier: replay
	// is last-valid-record-wins, so once this many records have
	// accumulated the log is folded into header + one record before the
	// next append.
	ckptCompactRecords = 8
)

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

// encode returns st's state payload. Windows are encoded in sorted
// order so the bytes are a pure function of the state.
func (st ckptState) encode() []byte {
	buf := make([]byte, 0, ckptStateFixed+len(st.windows)*ckptWindowSize)
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
	return buf
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
// recovering the last durable state and truncating a torn tail; a
// checksum-valid state that does not decode or regresses the LSN is a
// hard error (bitrot or a writer bug, not a crash signature). budget
// is charged the log (nil: unbudgeted).
func openCheckpoint(path, site string, budget *storage.DiskBudget) (*checkpointLog, error) {
	c := &checkpointLog{st: ckptState{windows: map[int64]int64{}}}
	log, err := storage.OpenStateLog(path, "ingest: checkpoint "+path, site, storage.CheckpointLog, budget, func(state []byte) error {
		st, err := decodeCkptPayload(state)
		if err != nil {
			return fmt.Errorf("checkpoint record: %w", err)
		}
		if st.lsn < c.st.lsn {
			return fmt.Errorf("checkpoint lsn regressed %d -> %d", c.st.lsn, st.lsn)
		}
		c.st = st
		c.recs++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: checkpoint %s: %w", path, err)
	}
	log.Attach(c.fold)
	c.log = log
	return c, nil
}

// write is one attempt at durably recording st, consulting the
// injector at the query's checkpoint site keyed by the state's LSN.
// Transient, permanent and disk-full faults roll the log back (nothing
// durable changed, safe to retry under Engine.Retry, whose reclaim
// ladder is safe here: the pump owns this log and holds no storage
// locks); a simulated crash leaves the torn tail for the next open and
// kills the handle. The in-memory state advances only on success.
func (c *checkpointLog) write(st ckptState, inj *faults.Injector) error {
	// Retention tier: fold a long log down before appending more.
	// Best-effort — a failed fold leaves the old log intact.
	if c.recs >= ckptCompactRecords {
		_ = c.fold() // lint:noerrcheck best-effort fold; append still valid on old log
	}
	if err := c.log.AppendState(st.encode(), uint64(st.lsn), inj); err != nil {
		return err
	}
	c.st = st.clone()
	c.recs++
	return nil
}

// fold folds the checkpoint log to its minimal form: header plus (once
// any progress exists) one record of the committed state.
func (c *checkpointLog) fold() error {
	var state []byte
	recs := 0
	if c.st.lsn > 0 || len(c.st.windows) > 0 {
		state, recs = c.st.encode(), 1
	}
	err := c.log.FoldState(state)
	if err == nil {
		c.recs = recs
	}
	return err
}

// close releases the file handle. Idempotent.
func (c *checkpointLog) close() error { return c.log.Close() }
