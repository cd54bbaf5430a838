// Self-healing view storage: corruption quarantine, full-log
// verification (scrub) and generational compaction.
//
// Materialized views are *derived* data — every row is recomputable
// from the source video plus the UDF — so corruption is treated as a
// cache partial-miss, not data loss. The pipeline has three stages:
//
//  1. Quarantine. Replay salvages the valid prefix and every
//     checksum-valid suffix around a corrupt record (view.go), records
//     the lost byte ranges here, and keeps serving salvaged rows. The
//     quarantine manifest ("<view>.quar") persists the finding.
//  2. Symbolic repair. The survived key ranges constrain the UDF
//     manager's aggregated predicate, so the optimizer's DIFF residual
//     re-plans exactly the missing rows; the executor's per-key
//     probe-or-evaluate already recomputes any missing key on demand.
//     (Driven from the eva layer; storage only reports the ranges.)
//  3. Scrub + compact. Verify re-hashes the whole log from disk —
//     including inside the clean sidecar's trusted prefix, whose fast
//     path is blind to bitrot by design — and Compact rewrites a holed
//     or repaired log into a fresh generation, committed by an atomic
//     rename only after the new generation's checksums re-verify.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"eva/internal/faults"
	"eva/internal/types"
	"eva/internal/xxhash"
)

// errHeaderCorrupt signals that the log's header is unreadable: no
// record can be attributed to a schema, so the generation is a total
// loss and the caller salvages by starting a fresh log.
var errHeaderCorrupt = errors.New("storage: view header corrupt")

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

// quarPath returns the quarantine-manifest path for a view log path.
func quarPath(path string) string { return path + ".quar" }

// compactPath returns the next-generation scratch path for a view log
// path. A file here is never authoritative: the rename onto the log
// path is compaction's commit point, so openView discards leftovers.
func compactPath(path string) string { return path + ".compact" }

// Quarantine manifest ("<view>.quar"): magic, version, range count,
// the lost ranges, and a trailing checksum. The manifest is a durable
// record of a detection — the salvage scan re-derives the same ranges
// from the log bytes, so a missing or stale manifest costs reporting,
// never correctness.
const (
	quarMagic   = 0x45564151 // "EVAQ"
	quarVersion = 1
)

// writeQuarManifest persists the quarantine beside the log at path, or
// removes the manifest when there is nothing quarantined. Best-effort,
// like the clean sidecar.
func writeQuarManifest(b *DiskBudget, path string, q *Quarantine) {
	if q == nil || len(q.Ranges) == 0 {
		_ = removeSidecar(b, quarPath(path))
		return
	}
	buf := binary.LittleEndian.AppendUint32(nil, quarMagic)
	buf = append(buf, quarVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.Ranges)))
	for _, r := range q.Ranges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Hi))
	}
	buf = binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf, 0))
	_ = writeSidecar(b, quarPath(path), buf)
}

// readQuarManifest loads the persisted quarantine ranges, or nil when
// there is no usable manifest.
func readQuarManifest(path string) []LostRange {
	data, err := os.ReadFile(quarPath(path))
	if err != nil || len(data) < 4+1+4+8 {
		return nil
	}
	if binary.LittleEndian.Uint32(data) != quarMagic || data[4] != quarVersion {
		return nil
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if xxhash.Sum64(body, 0) != sum {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(data[5:]))
	if n < 0 || 9+16*n != len(body) {
		return nil
	}
	out := make([]LostRange, 0, n)
	for i := 0; i < n; i++ {
		off := 9 + 16*i
		out = append(out, LostRange{
			Lo: int64(binary.LittleEndian.Uint64(data[off:])),
			Hi: int64(binary.LittleEndian.Uint64(data[off+8:])),
		})
	}
	return out
}

// adoptHolesLocked promotes the holes found by the last replay into
// the view's quarantine (or clears it when the scan found none) and
// persists the manifest. Callers hold mu (or run pre-publish in
// openView).
func (v *View) adoptHolesLocked() {
	if len(v.holes) == 0 {
		v.quar = nil
		writeQuarManifest(v.log.budget, v.path, nil)
		return
	}
	// Rows are gone that the predicate snapshot may still claim.
	v.predStale = true
	q := &Quarantine{
		Ranges:       append([]LostRange(nil), v.holes...),
		SalvagedRows: v.rows.len(),
		SalvagedKeys: v.index.len(),
	}
	for _, r := range q.Ranges {
		q.LostBytes += r.Hi - r.Lo
	}
	v.quar = q
	v.holes = nil
	writeQuarManifest(v.log.budget, v.path, q)
}

// trustedBoundLocked is the byte length of the log prefix the clean
// sidecar may vouch for: the whole verified footprint, or only up to
// the first quarantined hole. Callers hold mu (or run pre-publish).
func (v *View) trustedBoundLocked() int64 {
	if v.quar != nil && len(v.quar.Ranges) > 0 && v.quar.Ranges[0].Lo < v.log.footprint {
		return v.quar.Ranges[0].Lo
	}
	return v.log.footprint
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

// SurvivedIDRanges returns the merged closed ranges of the "id" key
// column values present in the processed-key set — the survival
// predicate corruption salvage can still vouch for. ok is false when
// the view has no integer "id" key column (no id-granular survival
// claim can be made; callers should retract coverage entirely).
func (v *View) SurvivedIDRanges() (ranges []IDRange, ok bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	idPos := -1
	for i, kc := range v.keyCols {
		if kc == "id" {
			idPos = i
		}
	}
	if idPos < 0 {
		return nil, false
	}
	ids := make([]int64, 0, v.index.len())
	for i := range v.index.slots {
		e := &v.index.slots[i]
		if *e == (keyEntry{}) {
			continue
		}
		var d types.Datum
		if e.n == 0 {
			b := v.index.zeroKey(e)
			for c := 0; c <= idPos; c++ {
				var w int
				var err error
				if d, w, err = types.DecodeDatum(b); err != nil {
					return nil, false
				}
				b = b[w:]
			}
		} else {
			chunk, r := v.rows.at(v.index.firstRow(e))
			d = chunk.At(r, v.keyIdx[idPos])
		}
		if d.Kind() != types.KindInt {
			return nil, false
		}
		ids = append(ids, d.Int())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if n := len(ranges); n > 0 && id <= ranges[n-1].Hi+1 {
			if id > ranges[n-1].Hi {
				ranges[n-1].Hi = id
			}
			continue
		}
		ranges = append(ranges, IDRange{Lo: id, Hi: id})
	}
	return ranges, true
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
	// the fast path had admitted turned out corrupt.
	FoundCorruption bool
	// Quar is the view's quarantine after the pass (nil when whole).
	Quar *Quarantine
	// RecordsVerified counts the records whose checksums this pass
	// recomputed (every surviving record — the scrub ignores the
	// sidecar's trusted prefix).
	RecordsVerified int
	// TornBytes is the size of the torn tail this pass truncated
	// (external truncation mid-record; 0 normally).
	TornBytes int64
	// RowsDropped is how many in-memory rows the pass removed because
	// their backing record failed its checksum (the clean-sidecar
	// blind-spot case: rows admitted by the trusted fast path whose
	// bytes rotted after the sidecar was written).
	RowsDropped int
	// Err is the pass's error, if it could not complete (set by
	// VerifyViews, which aggregates per-view failures).
	Err string
}

// Verify is the scrubber's full re-verification of the view log: it
// re-reads the file and re-hashes every record, deliberately ignoring
// the clean sidecar — closing the fast path's blind spot, where bitrot
// inside the trusted prefix is invisible to reopen. On corruption the
// view's in-memory state is atomically replaced with the salvaged
// state (corrupt rows are dropped, never served again), the lost
// ranges are quarantined, and the sidecar is re-bounded so the next
// open cannot trust the holes. The view stays open and serving
// throughout; Append/Scan callers simply observe the healed state.
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
	valid, rerr := shadow.replay(data, 0)
	if errors.Is(rerr, errHeaderCorrupt) {
		return res, v.resetCorruptHeaderLocked(int64(len(data)), &res)
	}
	if rerr != nil {
		return res, fmt.Errorf("storage: view %s: scrub: %w", v.name, rerr)
	}
	res.RecordsVerified = shadow.openVerified

	// Unchanged means the scan found exactly the state the view already
	// knows: the same holes it has already quarantined (or none), every
	// byte accounted for, and the same index. Known holes are not a new
	// detection — the pass only re-confirms the standing quarantine.
	prevRows, prevKeys := v.rows.len(), v.index.len()
	unchanged := sameRanges(shadow.holes, v.quar) && int64(valid) == int64(len(data)) &&
		shadow.rows.len() == prevRows && shadow.index.len() == prevKeys
	if unchanged {
		res.Clean = v.quar == nil
		res.Quar = v.quar.clone()
		v.writeCleanSidecarLocked()
		return res, nil
	}

	// Adopt the salvaged state. Disk always runs ahead of memory
	// (appends are disk-before-memory), so the shadow is the live
	// state minus rows whose records failed the re-hash.
	res.FoundCorruption = true
	if dropped := prevRows - shadow.rows.len(); dropped > 0 {
		res.RowsDropped = dropped
	}
	v.rows, v.index = shadow.rows, shadow.index
	// The scan may have dropped rows without leaving a hole (a torn
	// tail), so the snapshot it found is stale whatever adoptHolesLocked
	// decides below.
	v.pred, v.predStale = shadow.pred, true
	v.openTrusted, v.openVerified = 0, shadow.openVerified
	v.holes = shadow.holes
	// A torn tail from external truncation or tail corruption is dropped,
	// so the log ends on a record boundary again.
	if err := v.log.truncate(int64(valid)); err != nil {
		return res, fmt.Errorf("storage: view %s: scrub truncate: %w", v.name, err)
	}
	res.TornBytes = int64(len(data) - valid)
	v.log.recovered += res.TornBytes
	v.adoptHolesLocked()
	v.writeCleanSidecarLocked()
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
	if len(holes) != len(prev) {
		return false
	}
	for i, r := range holes {
		if r != prev[i] {
			return false
		}
	}
	return true
}

// shadowLocked builds an unpublished replica of the view's immutable
// identity with fresh replay state, for rebuilding off to the side.
// Callers hold mu.
func (v *View) shadowLocked() *View {
	s := &View{
		name:    v.name,
		path:    v.path,
		schema:  v.schema,
		keyCols: v.keyCols,
		keyIdx:  v.keyIdx,
	}
	s.resetReplayState()
	return s
}

// resetCorruptHeaderLocked is Verify's total-loss path: the header
// rotted under a live view, so every record is unattributable. The log
// restarts empty with the whole old generation quarantined; the
// in-memory rows are dropped (they can no longer be re-verified
// against disk). Callers hold mu.
func (v *View) resetCorruptHeaderLocked(oldLen int64, res *ScrubResult) error {
	res.FoundCorruption = true
	res.RowsDropped = v.rows.len()
	v.resetReplayState()
	v.holes = []LostRange{{Lo: 0, Hi: oldLen}}
	if err := v.log.Reset(v.encodeHeader()); err != nil {
		return fmt.Errorf("storage: view %s: scrub reset corrupt header: %w", v.name, err)
	}
	// The old sidecar described the lost generation.
	_ = removeSidecar(v.log.budget, cleanPath(v.path))
	v.adoptHolesLocked()
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
	writeQuarManifest(v.log.budget, v.path, nil)
	v.writeCleanSidecarLocked()
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
		_ = removeSidecar(v.log.budget, tmp)
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
	valid, err := shadow.replay(nd, 0)
	switch {
	case err != nil:
		return err
	case valid != len(nd) || len(shadow.holes) > 0:
		return fmt.Errorf("verify: new generation has a torn tail or holes")
	case shadow.rows.len() != v.rows.len() || shadow.index.len() != v.index.len():
		return fmt.Errorf("verify: new generation rebuilt %d rows/%d keys, want %d/%d",
			shadow.rows.len(), shadow.index.len(), v.rows.len(), v.index.len())
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
	var zero []string
	for i := range v.index.slots {
		if e := &v.index.slots[i]; e.n == 0 && e.first > 0 {
			zero = append(zero, string(v.index.zeroKey(e)))
		}
	}
	sort.Strings(zero)
	for base := 0; base < len(zero); base += compactChunkRows {
		n := len(zero) - base
		if n > compactChunkRows {
			n = compactChunkRows
		}
		var payload []byte
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
