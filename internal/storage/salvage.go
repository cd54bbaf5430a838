// Self-healing view storage: corruption quarantine, full-log
// verification (scrub) and generational compaction.
//
// Materialized views are *derived* data — every row is recomputable
// from the source video plus the UDF — so corruption is treated as a
// cache partial-miss, not data loss. The pipeline has three stages:
//
//  1. Quarantine. Replay, which verifies every record at every open,
//     salvages the valid prefix and every checksum-valid suffix around a
//     corrupt record (the frame scanner, frame.go), records the lost
//     byte ranges here, and keeps serving salvaged rows. The finding is
//     not persisted: the next open re-derives it from the same bytes.
//  2. Symbolic repair. The survived key ranges constrain the UDF
//     manager's aggregated predicate, so the optimizer's DIFF residual
//     re-plans exactly the missing rows; the executor's per-key
//     probe-or-evaluate already recomputes any missing key on demand.
//     (Driven from the eva layer; storage only reports the ranges.)
//  3. Scrub + compact. Verify re-hashes the whole log from disk —
//     catching bitrot that lands after the open verified it — and
//     Compact rewrites a holed or repaired log into a fresh generation,
//     committed by an atomic rename only after the new generation's
//     checksums re-verify.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"

	"eva/internal/faults"
)

// LostRange is one quarantined byte range [Lo, Hi) of a view log whose
// records failed their checksums and were salvaged around.
type LostRange struct {
	Lo, Hi int64
}

// Quarantine records what corruption salvage lost and kept. It is
// immutable once published; readers get a copy.
type Quarantine struct {
	// Ranges are the lost byte ranges, ascending and non-overlapping.
	Ranges []LostRange
	// LostBytes is the total quarantined byte count.
	LostBytes int64
	// SalvagedRows and SalvagedKeys count the rows and processed keys
	// recovered around the holes.
	SalvagedRows int
	SalvagedKeys int
}

// clone returns a deep copy safe to hand outside the view lock.
func (q *Quarantine) clone() *Quarantine {
	if q == nil {
		return nil
	}
	c := *q
	c.Ranges = append([]LostRange(nil), q.Ranges...)
	return &c
}

// compactPath returns the next-generation scratch path for a view log
// path. A file here is never authoritative: the rename onto the log
// path is compaction's commit point, so openView discards leftovers.
func compactPath(path string) string { return path + ".compact" }

// adoptHolesLocked makes holes — what the last replay salvaged around,
// or a whole lost generation — the view's quarantine (or clears it when
// there are none). Callers hold mu (or run pre-publish in openView).
func (v *View) adoptHolesLocked(holes []LostRange) {
	if len(holes) == 0 {
		v.quar = nil
		return
	}
	// Rows are gone that the predicate snapshot may still claim.
	v.predStale = true
	q := &Quarantine{
		Ranges:       append([]LostRange(nil), holes...),
		SalvagedRows: v.rows.len(),
		SalvagedKeys: v.rows.processed(),
	}
	for _, r := range q.Ranges {
		q.LostBytes += r.Hi - r.Lo
	}
	v.quar = q
}

// Quarantine returns a copy of the view's corruption record, or nil
// when the log is whole.
func (v *View) Quarantine() *Quarantine {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.quar.clone()
}

// IDRange is a closed range [Lo, Hi] of integer id-key values.
type IDRange struct {
	Lo, Hi int64
}

// SurvivedIDRanges returns the merged closed ranges of the ids of the
// processed keys — the survival predicate corruption salvage can still
// vouch for: the ids of the rows' keys and of the zero-row keys.
func (v *View) SurvivedIDRanges() []IDRange {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var ids []int64
	for _, keys := range append([][]viewKey{v.rows.zero.keys}, v.rows.runs...) {
		for _, k := range keys {
			ids = append(ids, k.id)
		}
	}
	slices.Sort(ids)
	var ranges []IDRange
	for _, id := range ids {
		if n := len(ranges); n > 0 && id <= ranges[n-1].Hi+1 {
			ranges[n-1].Hi = max(ranges[n-1].Hi, id)
			continue
		}
		ranges = append(ranges, IDRange{Lo: id, Hi: id})
	}
	return ranges
}

// ScrubResult reports one Verify pass over a view.
type ScrubResult struct {
	// Name is the view name.
	Name string
	// Clean is true when the full re-hash verified the log end to end
	// and found nothing new.
	Clean bool
	// FoundCorruption is true when this pass changed the view's state:
	// new holes were quarantined, a torn tail was truncated, or rows
	// the view held turned out corrupt.
	FoundCorruption bool
	// Quar is the view's quarantine after the pass (nil when whole).
	Quar *Quarantine
	// RecordsVerified counts the records whose checksums this pass
	// recomputed: every surviving record.
	RecordsVerified int
	// TornBytes is the size of the torn tail this pass truncated
	// (external truncation mid-record; 0 normally).
	TornBytes int64
	// RowsDropped is how many in-memory rows the pass removed because
	// their backing record failed its checksum: rows the open verified
	// whose bytes rotted after it.
	RowsDropped int
	// Err is the pass's error, if it could not complete (set by
	// VerifyViews, which aggregates per-view failures).
	Err string
}

// Verify is a scrub pass's full re-verification of the view log: it
// re-reads the file and re-hashes every record, catching bitrot that
// landed after the open verified the log. On corruption the view's
// in-memory state is atomically replaced with the salvaged state
// (corrupt rows are dropped, never served again) and the lost ranges
// are quarantined. The view stays open and serving throughout;
// Append/Scan callers simply observe the healed state.
func (v *View) Verify() (ScrubResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	res := ScrubResult{Name: v.name}
	if err := v.log.check(); err != nil {
		return res, err
	}
	if err := v.inj.Check(faults.SiteViewScrub(v.name)); err != nil {
		if faults.IsCrash(err) {
			v.log.dead = true
		}
		return res, fmt.Errorf("storage: view %s: scrub: %w", v.name, err)
	}
	data, err := os.ReadFile(v.path)
	if err != nil {
		return res, fmt.Errorf("storage: view %s: scrub: %w", v.name, err)
	}

	// Rebuild into a shadow so a hard replay error leaves the live
	// state untouched.
	shadow := v.shadowLocked()
	s, rerr := shadow.replay(data)
	if errors.Is(rerr, errHeaderCorrupt) {
		return res, v.resetCorruptHeaderLocked(int64(len(data)), &res)
	}
	if rerr != nil {
		return res, fmt.Errorf("storage: view %s: scrub: %w", v.name, rerr)
	}
	res.RecordsVerified = s.records

	// Unchanged means the scan found exactly the state the view already
	// knows: the same holes it has already quarantined (or none), every
	// byte accounted for, and the same index. Known holes are not a new
	// detection — the pass only re-confirms the standing quarantine.
	prevRows, prevKeys := v.rows.len(), v.rows.processed()
	unchanged := sameRanges(s.holes, v.quar) && s.valid == len(data) &&
		shadow.rows.len() == prevRows && shadow.rows.processed() == prevKeys
	if unchanged {
		res.Clean = v.quar == nil
		res.Quar = v.quar.clone()
		return res, nil
	}

	// Adopt the salvaged state. Disk always runs ahead of memory
	// (appends are disk-before-memory), so the shadow is the live
	// state minus rows whose records failed the re-hash.
	res.FoundCorruption = true
	if dropped := prevRows - shadow.rows.len(); dropped > 0 {
		res.RowsDropped = dropped
	}
	v.rows, v.relaid = shadow.rows, shadow.relaid
	// The scan may have dropped rows without leaving a hole (a torn
	// tail), so the snapshot it found is stale whatever adoptHolesLocked
	// decides below.
	v.pred, v.predStale = shadow.pred, true
	// A torn tail from external truncation or tail corruption is dropped,
	// so the log ends on a record boundary again.
	if err := v.log.truncate(int64(s.valid)); err != nil {
		return res, fmt.Errorf("storage: view %s: scrub truncate: %w", v.name, err)
	}
	res.TornBytes = int64(len(data) - s.valid)
	v.log.recovered += res.TornBytes
	v.adoptHolesLocked(s.holes)
	res.Quar = v.quar.clone()
	return res, nil
}

// sameRanges reports whether the freshly scanned holes match the
// standing quarantine exactly (nil quarantine ↔ no holes).
func sameRanges(holes []LostRange, q *Quarantine) bool {
	var prev []LostRange
	if q != nil {
		prev = q.Ranges
	}
	return slices.Equal(holes, prev)
}

// shadowLocked builds an unpublished replica of the view's immutable
// identity with fresh replay state, for rebuilding off to the side.
// Callers hold mu.
func (v *View) shadowLocked() *View {
	s := &View{
		name:      v.name,
		path:      v.path,
		schema:    v.schema,
		keyCols:   v.keyCols,
		keyIdx:    v.keyIdx,
		keySchema: v.keySchema,
		keyOwn:    v.keyOwn,
	}
	s.resetReplayState()
	return s
}

// resetCorruptHeaderLocked is Verify's total-loss path: the header
// rotted under a live view, so every record is unattributable. The log
// restarts as an empty generation (TailLog.rewrite) with the whole old
// one quarantined; the in-memory rows are dropped (they can no longer be
// re-verified against disk). A log that cannot be restarted is dead.
// Callers hold mu.
func (v *View) resetCorruptHeaderLocked(oldLen int64, res *ScrubResult) error {
	res.FoundCorruption = true
	res.RowsDropped = v.rows.len()
	v.resetReplayState()
	v.dropIndexLocked()
	if err := v.log.rewrite(v.encodeHeader()); err != nil {
		v.log.dead = true
		return fmt.Errorf("storage: view %s: scrub reset corrupt header: %w", v.name, err)
	}
	v.adoptHolesLocked([]LostRange{{Lo: 0, Hi: oldLen}})
	res.Quar = v.quar.clone()
	return nil
}

// compactChunkRows bounds the rows per record in a compacted
// generation, so salvage granularity (one record lost per flipped bit)
// stays bounded regardless of view size.
const compactChunkRows = 512

// CompactResult reports one generational compaction.
type CompactResult struct {
	Name        string
	BytesBefore int64
	BytesAfter  int64
	// RangesCleared is how many quarantined ranges the rewrite healed.
	RangesCleared int
}

// Compact rewrites the view log into a fresh generation: the salvaged
// in-memory state is re-encoded (holes and superseded records left
// behind), written to a scratch file, fsynced, and re-read so every
// checksum — including the trailing one — verifies against the
// durable bytes. Only then does an atomic rename commit the new
// generation; a crash at any earlier point leaves the old generation
// authoritative plus a scratch file the next open discards. Compaction
// clears the quarantine: the new generation has no holes, and any rows
// still missing are the UDF manager's residual to recompute, not the
// log's.
func (v *View) Compact() (CompactResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	res := CompactResult{Name: v.name}
	if err := v.log.check(); err != nil {
		return res, err
	}
	res.BytesBefore = v.log.footprint
	if v.quar != nil {
		res.RangesCleared = len(v.quar.Ranges)
	}
	buf := v.encodeCompactLocked()
	if err := v.writeGenerationLocked(buf); err != nil {
		return res, fmt.Errorf("storage: view %s: compact: %w", v.name, err)
	}
	// Commit point: swap generations under the view's append handle. The
	// scratch charge becomes the log's.
	if err := v.log.swap(compactPath(v.path), int64(len(buf))); err != nil {
		return res, fmt.Errorf("storage: view %s: compact commit: %w", v.name, err)
	}
	v.quar = nil
	v.pred = v.carriedPredLocked()
	// The new generation lists the keys in id order, not in the runs
	// memory keeps: only its next open's staged replay indexes it again.
	v.dropIndexLocked()
	v.relaid = true
	res.BytesAfter = v.log.footprint
	return res, nil
}

// writeGenerationLocked stages buf, a whole next generation, in the
// compaction scratch file: written, fsynced, and re-read so that every
// checksum verifies against the durable bytes and a shadow replay
// rebuilds exactly the state the view holds — only such a file may be
// swapped in. On an error the scratch file is gone again, except after a
// simulated crash, which leaves the partial file behind exactly as a
// killed process would (and kills the view). Callers hold mu.
func (v *View) writeGenerationLocked(buf []byte) error {
	tmp := compactPath(v.path)
	// The compaction site models a kill or failure anywhere in the
	// rewrite, keyed like an append by the log's footprint. The scratch
	// itself is never budget-gated: compaction *frees* space, and denying
	// its transient overshoot would wedge the reclaim ladder's cheapest
	// tier.
	site := faults.SiteViewCompact(v.name)
	allow, injected := drawWrite(v.inj, faults.SiteDiskFull(site), site, uint64(v.log.footprint), len(buf))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var wrote int
	if allow > 0 {
		wrote, err = f.Write(buf[:allow])
	}
	if injected != nil && faults.IsCrash(injected) {
		_ = f.Close()
		v.log.dead = true
		return injected
	}
	if injected != nil {
		err = injected
	} else if err == nil && wrote != len(buf) {
		err = fmt.Errorf("short write (%d of %d bytes)", wrote, len(buf))
	}
	if err == nil {
		// The scratch generation is on disk now: account it until the
		// swap folds it into the log's own charge (or a failure deletes
		// it).
		v.log.budget.Set(tmp, int64(len(buf)))
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = v.verifyGenerationLocked(tmp, len(buf))
	}
	if err != nil {
		_ = removeFile(v.log.budget, tmp)
	}
	return err
}

// verifyGenerationLocked re-reads the staged generation and checks it
// against the view: the right length, every checksum, no holes, the
// same rows, keys and carried predicate. Callers hold mu.
func (v *View) verifyGenerationLocked(tmp string, size int) error {
	nd, err := os.ReadFile(tmp)
	if err != nil {
		return err
	}
	if len(nd) != size {
		return fmt.Errorf("verify: scratch file is %d bytes, want %d", len(nd), size)
	}
	shadow := v.shadowLocked()
	s, err := shadow.replay(nd)
	switch {
	case err != nil:
		return err
	case s.valid != len(nd) || len(s.holes) > 0:
		return fmt.Errorf("verify: new generation has a torn tail or holes")
	case shadow.rows.len() != v.rows.len() || shadow.rows.processed() != v.rows.processed():
		return fmt.Errorf("verify: new generation rebuilt %d rows/%d keys, want %d/%d",
			shadow.rows.len(), shadow.rows.processed(), v.rows.len(), v.rows.processed())
	case !bytes.Equal(shadow.pred, v.carriedPredLocked()):
		return fmt.Errorf("verify: new generation rebuilt a different aggregated predicate")
	}
	return nil
}

// encodeCompactLocked serializes the in-memory state as a fresh
// generation: header, row records in batch order, then the zero-row
// processed keys in sorted order, then the aggregated-predicate
// snapshot, after everything it describes — unless it is stale: the new
// generation has no holes, so nothing would tell the next open that the
// snapshot claims lost rows, and dropping it (FALSE) is the safe side.
// Fully deterministic, so compacting identical states yields identical
// bytes. Callers hold mu.
func (v *View) encodeCompactLocked() []byte {
	buf := v.encodeHeader()
	var payload []byte
	for base, rows := 0, v.rows.len(); base < rows; base += compactChunkRows {
		n := min(rows-base, compactChunkRows)
		payload = payload[:0]
		for id := base; id < base+n; id++ {
			chunk, r := v.rows.at(id)
			for c := range v.schema {
				payload = chunk.Col(c)[r].AppendBinary(payload)
			}
		}
		buf = sealRecord(buf, recRows, n, payload)
	}
	z := &v.rows.zero
	zero := make([]string, len(z.keys))
	for i := range z.keys {
		zero[i] = string(z.key(&z.keys[i]))
	}
	sort.Strings(zero)
	for base := 0; base < len(zero); base += compactChunkRows {
		n := min(len(zero)-base, compactChunkRows)
		payload = payload[:0]
		for _, k := range zero[base : base+n] {
			payload = append(payload, k...)
		}
		buf = sealRecord(buf, recKeys, n, payload)
	}
	if pred := v.carriedPredLocked(); len(pred) > 0 {
		buf = sealRecord(buf, recPred, 0, pred)
	}
	return buf
}

// carriedPredLocked is the predicate snapshot a compacted generation
// keeps: the current one, unless it is stale. Callers hold mu.
func (v *View) carriedPredLocked() []byte {
	if v.predStale {
		return nil
	}
	return v.pred
}
