package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"eva/internal/faults"
	"eva/internal/types"
	"eva/internal/xxhash"
)

// View is an append-only materialized view of UDF results. Rows carry
// the key columns plus the UDF's output columns; separately, the view
// records every *processed key* so that keys whose evaluation produced
// zero rows (e.g. frames with no detections) are not re-evaluated.
//
// The view persists every append to its backing file and rebuilds its
// in-memory index when reopened. Appends are crash-safe: the log
// record is built and written to disk *before* any in-memory state
// changes, every record carries an xxhash64 checksum, and replay
// truncates a torn tail (a record cut short by a crash) back to the
// last complete record. Because appends are idempotent per key, a
// re-run STORE after recovery converges to the uninterrupted state.
//
// The log also carries the description of what it holds: the
// signature's aggregated predicate p_u, as snapshot records written
// after the rows they describe (the last one wins). The bytes are the
// UDF manager's; the view keeps them durable, hands them back at the
// next open, and guards one invariant — a snapshot never claims rows
// the log has lost (see predStale).
type View struct {
	name    string
	path    string
	schema  types.Schema
	keyCols []string
	keyIdx  []int

	mu sync.RWMutex
	// rows holds the stored rows in fixed-size column chunks; a row's id
	// is its position in append order.
	rows viewRows // guarded by mu
	// index is the view's one key index: an encoded key is present iff
	// it was processed, and leads to the ids of its rows — none for a key
	// whose evaluation produced no rows.
	index keyIndex // guarded by mu
	// ek is the writers' key-encoding scratch. guarded by mu.
	ek []byte
	// log owns the file below the record schema: handle, footprint,
	// dead flag, budget charge and the write protocol (logtail.go). The
	// pointer is fixed at open; what it points to is guarded by mu.
	log *TailLog         // guarded by mu
	inj *faults.Injector // guarded by mu
	// quar records the byte ranges lost to corruption salvage, pending
	// symbolic repair and compaction; nil when the log is whole.
	// guarded by mu.
	quar *Quarantine
	// pred is the last aggregated-predicate snapshot in the log, opaque
	// here; empty when there is none, which reads as FALSE. guarded by mu.
	pred []byte
	// predStale is set whenever the view loses rows — salvaged holes, a
	// scrub that dropped rows, eviction — because pred may then claim
	// keys the log no longer holds. While it is set the snapshot is not
	// extended (AppendPredicate) and not carried into a compacted
	// generation; the manager clears it by writing what the survived
	// rows still prove (ShrinkPredicate). guarded by mu.
	predStale bool
	// holes accumulates lost ranges during one replay/salvage scan; it
	// is working state for replay, promoted into quar by the caller.
	// guarded by mu (pre-publish in openView).
	holes []LostRange
	// openTrusted / openVerified count the records the last open
	// accepted from the clean-sidecar verified prefix (checksum check
	// skipped) versus fully verified. guarded by mu.
	openTrusted  int
	openVerified int
	// claims maps an encoded key to the in-flight claim that is
	// evaluating it (per-(view, key) singleflight across sessions);
	// the channel closes when the claim is released. guarded by mu.
	claims map[string]chan struct{}
	// touch is the engine's access ordinal at this view's last lookup,
	// read by the eviction ranker (atomic — ordinals come from the
	// engine's touchSeq, bumped per engine-level lookup, not per row).
	touch atomic.Uint64
}

// View file format v2: header (magic, version, schema, key columns)
// followed by self-verifying records:
//
//	[kind:1][count:4][payloadLen:4][payload][sum:8]
//
// where sum = xxhash64 over the bytes from kind through payload.
// Record kinds: rows (encoded datum rows), processed-keys (encoded key
// tuples) and predicate (count 0; the payload is a snapshot of the
// aggregated predicate, empty for FALSE; logs written before the kind
// existed simply have none). Version 1 (no checksums) is no longer
// readable; views are rebuilt from UDF evaluation, so an unsupported
// version is surfaced as an error rather than migrated.
const (
	viewMagic   = 0x45564156 // "EVAV"
	viewVersion = 2

	recRows = 1
	recKeys = 2
	recPred = 3

	// recHeaderLen is kind + count + payloadLen; recSumLen the
	// trailing checksum.
	recHeaderLen = 9
	recSumLen    = 8
)

// Clean sidecar ("<view>.clean"): the verified-prefix fast path. A
// clean close (and a completed open) records the byte length of the
// log's verified prefix plus the file's trailing record checksum at
// that length, all under a sidecar checksum. The next open trusts
// records entirely inside that prefix — skipping the per-record xxhash
// re-verification whose cost grows with log length, not tail length —
// and fully verifies only the bytes past it. The sidecar binds itself
// to the file contents via the tail checksum, so a stale or foreign
// sidecar degrades to the full verifying scan rather than admitting
// unchecked bytes; likewise any structural inconsistency inside the
// trusted prefix falls back to a full scan (errTrustedCorrupt).
const (
	cleanMagic   = 0x4556414b // "EVAK"
	cleanVersion = 1
	// cleanLen is magic + version + trusted length + tail checksum +
	// sidecar checksum.
	cleanLen = 4 + 1 + 8 + 8 + 8
)

// errTrustedCorrupt signals that the sidecar-trusted prefix failed a
// structural check; the caller re-replays with full verification.
var errTrustedCorrupt = errors.New("storage: trusted prefix failed structural check")

// cleanPath returns the sidecar path for a view log path.
func cleanPath(path string) string { return path + ".clean" }

// readCleanSidecar returns the trusted prefix length recorded by the
// last clean close/open, or 0 when there is no usable sidecar. data is
// the log contents; the sidecar must match its length and trailing
// record checksum to be trusted.
func readCleanSidecar(path string, data []byte) int64 {
	sc, err := os.ReadFile(cleanPath(path))
	if err != nil || len(sc) != cleanLen {
		return 0
	}
	if binary.LittleEndian.Uint32(sc) != cleanMagic || sc[4] != cleanVersion {
		return 0
	}
	if xxhash.Sum64(sc[:cleanLen-8], 0) != binary.LittleEndian.Uint64(sc[cleanLen-8:]) {
		return 0
	}
	trusted := int64(binary.LittleEndian.Uint64(sc[5:]))
	if trusted < recSumLen || trusted > int64(len(data)) {
		return 0
	}
	if binary.LittleEndian.Uint64(data[trusted-recSumLen:]) != binary.LittleEndian.Uint64(sc[13:]) {
		return 0
	}
	return trusted
}

// writeCleanSidecarLocked refreshes the sidecar to the log's current
// trusted bound — the whole footprint, or only up to the first
// quarantined hole, which the next open must re-verify around rather
// than trust. Best-effort: a failure only costs the next open a full
// scan. Callers hold mu.
func (v *View) writeCleanSidecarLocked() {
	bound := v.trustedBoundLocked()
	if v.log.dead || bound < recSumLen {
		return
	}
	f, err := os.Open(v.path)
	if err != nil {
		return
	}
	defer f.Close()
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, cleanLen), cleanMagic)
	buf = append(buf, cleanVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bound))
	buf = buf[:len(buf)+recSumLen]
	if _, err := f.ReadAt(buf[len(buf)-recSumLen:], bound-recSumLen); err != nil {
		return
	}
	buf = binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf, 0))
	_ = writeSidecar(v.log.budget, cleanPath(v.path), buf)
}

// openView opens (or creates) the view log at path. A nil schema opens
// an existing log as whatever its header declares — the manager asking
// for a persisted predicate before any operator knows the row layout —
// and fails where a creator's schema would be needed: no log, or an
// unreadable header.
func openView(path, name string, schema types.Schema, keyCols []string, inj *faults.Injector, budget *DiskBudget) (*View, error) {
	v := &View{
		name:   name,
		path:   path,
		claims: map[string]chan struct{}{},
		inj:    inj,
	}
	fromHeader := schema == nil
	if !fromHeader {
		v.setLayout(schema, keyCols)
	}
	// A tombstone marks a committed eviction the process died inside:
	// whatever artifacts survive describe a view that no longer exists,
	// so clear them all and start fresh. The tombstone must never
	// resurrect a half-deleted view.
	if _, err := os.Stat(tombPath(path)); err == nil {
		clearTombstonedView(path)
	}
	// A crash mid-compaction or mid-sidecar-write can leave a scratch
	// file behind; it was never committed (the rename is the commit
	// point), so it is garbage.
	for _, p := range viewScratch(path) {
		_ = os.Remove(p)
	}
	headerLost, replayed := false, false
	log, err := OpenTailLog(path, "storage: view "+name, faults.SiteViewWrite(name), v.encodeHeader(), budget, func(data []byte) (int, error) {
		replayed = true
		trusted := readCleanSidecar(path, data)
		valid, rerr := v.replay(data, trusted)
		if errors.Is(rerr, errTrustedCorrupt) {
			// The sidecar promised a clean prefix the file does not
			// have (external truncation or corruption): fall back to
			// the full verifying scan over a fresh in-memory state.
			v.resetReplayState()
			valid, rerr = v.replay(data, 0)
		}
		if errors.Is(rerr, errHeaderCorrupt) && !fromHeader {
			// The header itself is unreadable, so no record can be
			// attributed to a schema: the whole generation is lost.
			// Views are derived data — quarantine everything and start
			// a fresh log rather than dying. Returning valid = 0 makes
			// the shared truncation drop the whole generation.
			v.resetReplayState()
			v.holes = []LostRange{{Lo: 0, Hi: int64(len(data))}} // lint:nolock pre-publish (openView)
			// The old sidecar described the lost generation.
			_ = os.Remove(cleanPath(path))
			headerLost = true
			return 0, nil
		}
		if rerr != nil {
			return 0, rerr
		}
		// Mid-log holes before valid stay on disk — they are
		// quarantined, and truncating them would shift every later
		// record's LSN; only the torn tail past valid is dropped.
		return valid, nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: view %s: %w", name, err)
	}
	if headerLost {
		// Header loss is accounted as a quarantined hole, not as a torn
		// tail.
		log.recovered = 0
	}
	v.log = log          // lint:nolock pre-publish (openView)
	v.adoptHolesLocked() // lint:nolock pre-publish (openView)
	if replayed {
		// Refresh the sidecar to the verified prefix — up to the first
		// hole when quarantined — so the *next* open's verification
		// cost is bounded. Best-effort: failure costs a full scan, not
		// correctness. A fresh (never-written) log earns no sidecar.
		v.writeCleanSidecarLocked() // lint:nolock pre-publish (openView)
	}
	return v, nil
}

// setLayout fixes the row layout. It runs inside openView before the
// view is published.
func (v *View) setLayout(schema types.Schema, keyCols []string) {
	v.schema = schema.Clone()
	v.keyCols = append([]string(nil), keyCols...)
	for _, kc := range keyCols {
		v.keyIdx = append(v.keyIdx, schema.IndexOf(kc))
	}
	v.rows.keyIdx = v.keyIdx // lint:nolock pre-publish (openView)
}

func (v *View) encodeHeader() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, viewMagic)
	buf = append(buf, viewVersion)
	buf = append(buf, byte(len(v.schema)))
	for _, c := range v.schema {
		buf = append(buf, byte(c.Kind), byte(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	buf = append(buf, byte(len(v.keyCols)))
	for _, kc := range v.keyCols {
		buf = append(buf, byte(len(kc)))
		buf = append(buf, kc...)
	}
	return buf
}

// sealRecord appends one checksummed record to buf.
func sealRecord(buf []byte, kind byte, count int, payload []byte) []byte {
	start := len(buf)
	return endRecord(append(beginRecord(buf, kind), payload...), start, count)
}

// beginRecord appends a record header of the given kind for a payload
// the caller appends in place; endRecord, given where the record began,
// fills in the count and the payload length and appends the checksum.
func beginRecord(buf []byte, kind byte) []byte {
	return append(buf, kind, 0, 0, 0, 0, 0, 0, 0, 0)
}

func endRecord(buf []byte, start, count int) []byte {
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(count))
	binary.LittleEndian.PutUint32(buf[start+5:], uint32(len(buf)-start-recHeaderLen))
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf[start:], 0))
}

// resetReplayState discards the rows, the index and whatever else a
// replay builds, so that one can start from scratch. It runs inside
// openView before the view is published or, from eviction and the
// scrubber's header reset, with mu held.
func (v *View) resetReplayState() {
	v.rows = viewRows{keyIdx: v.keyIdx}  // lint:nolock pre-publish (openView)
	v.index = keyIndex{}                 // lint:nolock pre-publish (openView)
	v.openTrusted, v.openVerified = 0, 0 // lint:nolock pre-publish (openView)
	v.holes = nil                        // lint:nolock pre-publish (openView)
	v.pred = nil                         // lint:nolock pre-publish (openView)
}

// replay rebuilds in-memory state from the log. It returns the byte
// offset past the last record it accepted. An unreadable header is
// reported as errHeaderCorrupt (the whole generation is lost — views
// are derived data, so the caller salvages by starting over). A record
// failing its structural checks or checksum mid-log is *salvaged
// around*: replay resynchronizes to the next checksum-valid record
// boundary, records the skipped bytes in v.holes, and keeps going, so
// one flipped bit quarantines one record instead of killing the view.
// Only when no valid record follows — the signature of a crash
// mid-append — does replay stop at the last good boundary so the
// caller can truncate the torn tail. Records that end at or before
// trusted (the sidecar's clean prefix) skip the checksum
// re-verification; any failure inside that region is reported as
// errTrustedCorrupt so the caller can fall back to a full verifying
// scan. It runs inside openView before the view is published, so it
// may touch guarded fields without the lock.
func (v *View) replay(data []byte, trusted int64) (int, error) {
	schema, keyCols, off, err := parseViewHeader(data)
	if err != nil {
		return 0, err
	}
	switch {
	case v.schema == nil:
		for _, kc := range keyCols {
			if !schema.Has(kc) {
				return 0, errHeaderCorrupt
			}
		}
		v.setLayout(schema, keyCols)
	case !schema.Equal(v.schema):
		return 0, fmt.Errorf("schema mismatch: file has %s, want %s", schema, v.schema)
	case len(keyCols) != len(v.keyCols):
		// Names are settled by schema equality; only the count can differ.
		return 0, fmt.Errorf("key count mismatch: file has %d, want %d", len(keyCols), len(v.keyCols))
	}
	if trusted > 0 && trusted < int64(off) {
		// The sidecar claims a prefix shorter than the header: stale
		// beyond use.
		return 0, errTrustedCorrupt
	}
	for off < len(data) {
		inTrusted := int64(off) < trusted
		end, ok := recordBounds(data, off)
		fastPath := ok && inTrusted && int64(end) <= trusted
		if ok && !fastPath {
			// Verified-prefix fast path skips this hash: records
			// entirely inside the sidecar's clean prefix were verified
			// by the open that wrote the sidecar. (That skip is also
			// the fast path's blind spot — bitrot landing inside the
			// trusted prefix after the sidecar was written passes this
			// scan; Verify's full re-hash is what catches it.)
			sum := binary.LittleEndian.Uint64(data[end-recSumLen:])
			ok = xxhash.Sum64(data[off:end-recSumLen], 0) == sum
		}
		if !ok {
			if inTrusted {
				return 0, errTrustedCorrupt
			}
			// Bad record outside the trusted prefix: try to salvage a
			// valid suffix. With none, this is a torn tail (crash
			// mid-append) — stop at the last good boundary so the
			// caller truncates. With one, the skipped bytes are a
			// mid-log hole: quarantine them and keep replaying.
			next := resyncRecord(data, off+1)
			if next < 0 {
				return off, nil
			}
			v.holes = append(v.holes, LostRange{Lo: int64(off), Hi: int64(next)}) // lint:nolock pre-publish (openView)
			off = next
			continue
		}
		kind := data[off]
		count := int(binary.LittleEndian.Uint32(data[off+1:]))
		if fastPath {
			v.openTrusted++ // lint:nolock pre-publish (openView)
		} else {
			v.openVerified++
		}
		payload := data[off+recHeaderLen : end-recSumLen]
		if err := v.replayRecord(kind, count, payload); err != nil {
			if inTrusted {
				// Inside the trusted prefix an undecodable payload
				// means the sidecar lied (the checksum was skipped):
				// retry with full verification before giving up.
				return 0, errTrustedCorrupt
			}
			// The checksum matched but the payload is undecodable:
			// a writer bug or deliberate corruption, not a crash.
			return 0, err
		}
		off = end
	}
	return off, nil
}

// parseViewHeader reads the log header: the row schema, the key column
// names and the offset of the first record. A header it cannot read is
// errHeaderCorrupt.
func parseViewHeader(data []byte) (schema types.Schema, keyCols []string, off int, err error) {
	if len(data) < 6 || binary.LittleEndian.Uint32(data) != viewMagic {
		return nil, nil, 0, errHeaderCorrupt
	}
	if data[4] != viewVersion {
		return nil, nil, 0, fmt.Errorf("unsupported view version %d: %w", data[4], errHeaderCorrupt)
	}
	// name reads one length-prefixed name at off.
	name := func() (string, bool) {
		if off >= len(data) || off+1+int(data[off]) > len(data) {
			return "", false
		}
		s := string(data[off+1 : off+1+int(data[off])])
		off += 1 + len(s)
		return s, true
	}
	off = 5
	ncols := int(data[off])
	off++
	for i := 0; i < ncols; i++ {
		if off >= len(data) {
			return nil, nil, 0, errHeaderCorrupt
		}
		kind := types.Kind(data[off])
		off++
		n, ok := name()
		if !ok {
			return nil, nil, 0, errHeaderCorrupt
		}
		schema = append(schema, types.Column{Name: n, Kind: kind})
	}
	if off >= len(data) {
		return nil, nil, 0, errHeaderCorrupt
	}
	nkeys := int(data[off])
	off++
	for i := 0; i < nkeys; i++ {
		n, ok := name()
		if !ok {
			return nil, nil, 0, errHeaderCorrupt
		}
		keyCols = append(keyCols, n)
	}
	return schema, keyCols, off, nil
}

// recordBounds validates the record header at off structurally,
// returning the offset past the record. ok is false when the record
// does not fit in data or its header is implausible.
func recordBounds(data []byte, off int) (end int, ok bool) {
	if off+recHeaderLen+recSumLen > len(data) {
		return 0, false
	}
	kind := data[off]
	if kind != recRows && kind != recKeys && kind != recPred {
		return 0, false
	}
	count := int(binary.LittleEndian.Uint32(data[off+1:]))
	paylen := int(binary.LittleEndian.Uint32(data[off+5:]))
	if paylen < 0 || count < 0 {
		return 0, false
	}
	end = off + recHeaderLen + paylen + recSumLen
	if end < off || end > len(data) {
		return 0, false
	}
	return end, true
}

// checkRecord validates the record at off structurally and against its
// checksum, returning the offset past it.
func checkRecord(data []byte, off int) (end int, sumOK bool) {
	end, ok := recordBounds(data, off)
	if !ok {
		return 0, false
	}
	sum := binary.LittleEndian.Uint64(data[end-recSumLen:])
	if xxhash.Sum64(data[off:end-recSumLen], 0) != sum {
		return 0, false
	}
	return end, true
}

// resyncRecord scans forward from off for the next byte offset holding
// a checksum-valid record, or -1 when none exists. A 64-bit checksum
// over the full candidate record makes a false resynchronization point
// (random bytes that both parse as a header and hash correctly)
// vanishingly unlikely.
func resyncRecord(data []byte, off int) int {
	for ; off+recHeaderLen+recSumLen <= len(data); off++ {
		if _, ok := checkRecord(data, off); ok {
			return off
		}
	}
	return -1
}

// replayRecord decodes one verified record payload into memory.
func (v *View) replayRecord(kind byte, count int, payload []byte) error {
	off := 0
	switch kind {
	case recRows:
		// A record's rows go where the next append's would: into the
		// tail chunk, and on into fresh ones when it fills.
		from := v.rows.len() // lint:nolock replay runs inside openView before the view is published
		for left := count; left > 0; {
			tail, room := v.rows.room(v.schema) // lint:nolock replay runs inside openView before the view is published
			k := min(left, room)
			n, err := tail.AppendEncoded(payload[off:], k)
			if err != nil {
				return fmt.Errorf("row record: %w", err)
			}
			off, left = off+n, left-k
		}
		v.indexRowsLocked(from)
	case recKeys:
		for r := 0; r < count; r++ {
			start := off
			for range v.keyCols {
				_, n, err := types.DecodeDatum(payload[off:])
				if err != nil {
					return fmt.Errorf("key record: %w", err)
				}
				off += n
			}
			// The datum encoding is fixed-layout, so the bytes just
			// decoded are the key's canonical AppendKey encoding.
			v.index.mark(hashKey(payload[start:off]), payload[start:off], &v.rows) // lint:nolock replay runs inside openView before the view is published
		}
	case recPred:
		// A snapshot: the last one replayed wins. Copied, because payload
		// aliases the whole log image.
		v.pred = append([]byte(nil), payload...) // lint:nolock replay runs inside openView before the view is published
		off = len(payload)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	if off != len(payload) {
		return fmt.Errorf("record kind %d: %d trailing payload bytes", kind, len(payload)-off)
	}
	return nil
}

func (v *View) setInjector(inj *faults.Injector) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.inj = inj
}

// setBudget installs (or clears) the disk budget, charging the log and
// the sidecars already beside it so late installation still accounts
// for them.
func (v *View) setBudget(b *DiskBudget) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.log.setBudget(b)
	for _, side := range viewSidecars(v.path) {
		if fi, err := os.Stat(side); err == nil {
			b.Set(side, fi.Size())
		}
	}
}

// Name returns the view name.
func (v *View) Name() string { return v.name }

// Schema returns the view's row schema.
func (v *View) Schema() types.Schema { return v.schema }

// KeyColumns returns the key column names.
func (v *View) KeyColumns() []string { return v.keyCols }

// RecoveredBytes returns the size of the torn tail dropped when the
// view was opened (0 for a clean log).
func (v *View) RecoveredBytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.log.recovered
}

// OpenStats reports how the last open rebuilt the index: trusted is
// the number of records accepted from the clean-sidecar prefix without
// checksum re-verification, verified the number whose checksums were
// recomputed. trusted = 0 on a first open or after a fallback scan.
func (v *View) OpenStats() (trusted, verified int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.openTrusted, v.openVerified
}

// AppendKey appends the canonical encoding of a key tuple to buf and
// returns it: the form keys take in the view index, for probe loops
// that reuse a scratch buffer and look up with ProbeBatch.
func AppendKey(buf []byte, key []types.Datum) []byte {
	for _, d := range key {
		buf = d.AppendBinary(buf)
	}
	return buf
}

// AppendRowKey is AppendKey for the key held in columns keyIdx of row r
// of b, without materializing the tuple.
func AppendRowKey(buf []byte, b *types.Batch, r int, keyIdx []int) []byte {
	for _, c := range keyIdx {
		buf = b.At(r, c).AppendBinary(buf)
	}
	return buf
}

// rowHasKey reports whether row r of b holds exactly the key ek encodes
// in columns keyIdx.
func rowHasKey(b *types.Batch, r int, keyIdx []int, ek []byte) bool {
	for _, c := range keyIdx {
		n, ok := b.Col(c)[r].MatchEncoded(ek)
		if !ok {
			return false
		}
		ek = ek[n:]
	}
	return len(ek) == 0
}

// indexRowsLocked adds the stored rows [from, len) to the key index.
// Consecutive rows sharing a key — a detector's rows for one frame —
// are indexed as one run, so the key is encoded (into scratch) and
// hashed and the index touched once per key, not once per row. Callers
// hold mu (or run pre-publish).
func (v *View) indexRowsLocked(from int) {
	for n := v.rows.len(); from < n; {
		chunk, r := v.rows.at(from)
		v.ek = AppendRowKey(v.ek[:0], chunk, r, v.keyIdx)
		end := from + 1
		for end < n && v.rows.hasKey(end, v.ek) {
			end++
		}
		v.index.addRun(hashKey(v.ek), v.ek, &v.rows, from, end-from)
		from = end
	}
}

// Append adds result rows and marks extra keys as processed (for keys
// whose evaluation produced no rows). Rows whose key is already
// processed are skipped — appends are idempotent per key, which keeps
// the STORE operator safe to re-run. It returns the number of new rows
// stored and persists the append.
//
// Ordering contract: the log record reaches disk before any in-memory
// state changes. On a write error the partial write is rolled back
// (file truncated to its pre-append length) and memory is untouched,
// so memory can never run ahead of disk; on a simulated crash the
// view is marked dead and the torn tail is left for recovery at the
// next open.
//
// Disk pressure never fails an append while something evictable
// remains: a budget denial or injected disk:full fault releases the
// lock, runs the engine's reclaim ladder (compact fragmented logs,
// then evict cold views), charges virtual-clock backoff, and retries;
// only a dry ladder surfaces the typed ErrDiskBudget.
func (v *View) Append(rows *types.Batch, processedKeys [][]types.Datum) (int, error) {
	v.mu.RLock()
	inj := v.inj
	v.mu.RUnlock()
	return v.AppendWith(rows, processedKeys, inj)
}

// AppendWith is Append drawing write faults from the caller's injector
// instead of the view's installed one: every statement appends through
// it with its session's injector, so a session's write faults follow
// that session's deterministic schedule (nil injects nothing, even
// when the system has an injector installed).
//
// Locked append attempts hold no view lock between them (TailLog.Retry):
// a retriable disk-full failure frees space through the engine's
// reclaim ladder, which must take other views' locks, and retries the
// same record.
func (v *View) AppendWith(rows *types.Batch, processedKeys [][]types.Datum, inj *faults.Injector) (n int, err error) {
	err = v.log.Retry(func() (err error) { // lint:nolock the pointer is fixed at open
		v.mu.Lock()
		defer v.mu.Unlock()
		n, err = v.appendLocked(rows, processedKeys, inj)
		return err
	})
	return n, err
}

// MakeRoom is TailLog.MakeRoom on the view's log, for a caller that
// drives its own attempts (the aggregated-predicate commit). The ladder
// excludes this view: a budget too small for even one view ends with a
// dry ladder and the typed error, never an evict-ourselves loop. The
// caller must hold no view lock.
func (v *View) MakeRoom(err error, attempt int) error {
	return v.log.MakeRoom(err, attempt) // lint:nolock the pointer is fixed at open
}

// Predicate returns the last aggregated-predicate snapshot the log
// holds (empty: none, which reads as FALSE) and whether it is stale:
// the view has lost rows since, so the snapshot may claim keys the log
// no longer has and must be shrunk to what survived before it is used.
func (v *View) Predicate() (pred []byte, stale bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.pred, v.predStale
}

// AppendPredicate makes pred the view's durable aggregated predicate:
// one attempt at appending a snapshot record, through the same write
// path as rows — fault sites keyed by LSN, budget admission, rollback of
// a failed write, a torn tail after a simulated crash — so it must
// follow the rows it describes. A snapshot equal to the last one writes
// nothing. While the predicate is stale the record is not written: the
// manager's copy predates a loss of rows, and persisting it could claim
// keys the log no longer holds.
func (v *View) AppendPredicate(pred []byte, inj *faults.Injector) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.predStale || bytes.Equal(pred, v.pred) {
		return nil
	}
	return v.writePredLocked(pred, inj)
}

// ShrinkPredicate is the manager's answer to a loss of rows: pred is
// what the surviving rows still prove. It clears the stale mark and, if
// the log holds anything else, appends pred as the new snapshot — one
// best-effort attempt under the view's own injector: when it fails the
// mark stays, so the outdated snapshot is neither trusted by a later
// open (which finds the same holes) nor carried by a compaction.
func (v *View) ShrinkPredicate(pred []byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !bytes.Equal(pred, v.pred) && v.writePredLocked(pred, v.inj) != nil {
		return
	}
	v.predStale = false
}

func (v *View) writePredLocked(pred []byte, inj *faults.Injector) error {
	if err := v.log.Append(sealRecord(nil, recPred, 0, pred), uint64(v.log.footprint), inj); err != nil {
		return err
	}
	v.pred = append([]byte(nil), pred...)
	return nil
}

func (v *View) appendLocked(rows *types.Batch, processedKeys [][]types.Datum, inj *faults.Injector) (int, error) {
	if rows != nil && !rows.Schema().Equal(v.schema) {
		return 0, fmt.Errorf("storage: view %s: append schema %s, want %s", v.name, rows.Schema(), v.schema)
	}
	for _, key := range processedKeys {
		if len(key) != len(v.keyCols) {
			return 0, fmt.Errorf("storage: view %s: key width %d, want %d", v.name, len(key), len(v.keyCols))
		}
	}
	if v.log.dead {
		return 0, v.log.check()
	}

	// Phase 1 (pure): decide which rows and keys are new and encode
	// the log record. No in-memory state changes yet, so a row is stored
	// iff its key was unprocessed when this call began — sibling rows of
	// a key this very batch introduces all pass.
	// The key is encoded and looked up once per run of consecutive rows
	// sharing it (a detector's rows for one frame), not once per row. The
	// records are built in place in one buffer sized for every row being
	// new, so encoding never regrows it.
	size, n := 2*(recHeaderLen+recSumLen), 0
	if rows != nil {
		size, n = size+rows.EncodedSize(), rows.Len()
	}
	out := beginRecord(make([]byte, 0, size), recRows)
	newRowIdx := make([]int, 0, n)
	for r := 0; r < n; {
		v.ek = AppendRowKey(v.ek[:0], rows, r, v.keyIdx)
		end := r + 1
		for end < n && rowHasKey(rows, end, v.keyIdx, v.ek) {
			end++
		}
		if _, done := v.index.find(hashKey(v.ek), v.ek, &v.rows); done {
			r = end
			continue
		}
		for ; r < end; r++ {
			newRowIdx = append(newRowIdx, r)
			for c := range v.schema {
				out = rows.Col(c)[r].AppendBinary(out)
			}
		}
	}
	if len(newRowIdx) > 0 {
		out = endRecord(out, 0, len(newRowIdx))
	} else {
		out = out[:0]
	}

	keysAt := len(out)
	out = beginRecord(out, recKeys)
	var newKeyIdx []int
	for ki, key := range processedKeys {
		start := len(out)
		out = AppendKey(out, key)
		if _, done := v.index.find(hashKey(out[start:]), out[start:], &v.rows); done {
			out = out[:start]
			continue
		}
		newKeyIdx = append(newKeyIdx, ki)
	}
	if len(newKeyIdx) > 0 {
		out = endRecord(out, keysAt, len(newKeyIdx))
	} else {
		out = out[:keysAt]
	}
	if len(out) == 0 {
		return 0, nil
	}

	// Phase 2: disk. The pre-append footprint is the record's LSN. A
	// failure here leaves memory exactly as it was.
	if err := v.log.Append(out, uint64(v.log.footprint), inj); err != nil {
		return 0, err
	}

	// Phase 3: memory, now that the record is durable.
	// Rows are copied into the tail chunk — storage that already exists —
	// and on into fresh chunks when it fills.
	from := v.rows.len()
	for idx := newRowIdx; len(idx) > 0; {
		tail, room := v.rows.room(v.schema)
		k := min(len(idx), room)
		if err := tail.AppendGather(rows, idx[:k], nil, nil); err != nil {
			return 0, fmt.Errorf("storage: view %s: %w", v.name, err)
		}
		idx = idx[k:]
	}
	v.indexRowsLocked(from)
	for _, ki := range newKeyIdx {
		v.ek = AppendKey(v.ek[:0], processedKeys[ki])
		v.index.mark(hashKey(v.ek), v.ek, &v.rows)
	}
	return len(newRowIdx), nil
}

// Scan returns a copy of all stored rows, in append order: O(rows). The
// probe path does not come here — it reads the chunks in place
// (ProbeBatch); this is for the fuzzy index, tests and the benchmark.
func (v *View) Scan() *types.Batch {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := v.rows.len()
	out := types.NewBatchCapacity(v.schema, n)
	for i, chunk := range v.rows.chunks {
		// The schemas are the view's own on both sides.
		_ = out.AppendRange(chunk, 0, min(1<<chunkShift, n-i<<chunkShift))
	}
	return out
}

// Rows returns the number of stored result rows.
func (v *View) Rows() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.rows.len()
}

// ProcessedCount returns the number of distinct processed keys.
func (v *View) ProcessedCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.index.len()
}

// Probed accumulates what the probes of one input batch found: a hit
// per processed key, and the stored rows of all of them as (chunk, row)
// pairs — Srcs[i] is a view chunk, Rows[i] a row of it — ready to be
// gathered. The chunks are the ones the probe read under the view's
// lock and stay as they were then whatever appends, salvage and
// eviction do to the view afterwards. A prober keeps one and truncates
// it from batch to batch.
type Probed struct {
	Hits []ProbeHit
	Srcs []*types.Batch
	Rows []int
	sink int32 // keeps ProbeBatch's slot-touching loads from being optimised away
}

func (p *Probed) add(chunk *types.Batch, row int) {
	p.Srcs, p.Rows = append(p.Srcs, chunk), append(p.Rows, row)
}

// ProbeHit is one processed key found by ProbeBatch: Key is its
// position in the probed batch, and its rows are pairs Lo..Hi-1 of the
// Probed it was added to (none for a key processed with no rows).
type ProbeHit struct{ Key, Lo, Hi int }

// ProbeBatch is the probe side of the reuse join. Under one read lock
// it looks up every key selected by sel — key k is the AppendKey
// encoding keys[offs[k]:offs[k+1]] and hashes[k] its KeyHash — and
// appends to out a ProbeHit per processed key and the rows it has.
// lint:hotpath batch probe loop must not allocate per key
func (v *View) ProbeBatch(keys []byte, offs []int, hashes []uint64, sel []int, out *Probed) {
	out.Hits = slices.Grow(out.Hits, len(sel))
	from := len(out.Hits)
	v.mu.RLock()
	defer v.mu.RUnlock()
	// The hashes scatter the batch's keys over the table: touch every
	// home slot first, so that the misses overlap instead of each probe
	// waiting for its own.
	out.sink = v.index.touch(hashes, sel)
	// Find the entries and count their rows, so that the pair lists grow
	// once per batch at most, then expand them.
	rows := 0
	for _, k := range sel {
		if i, ok := v.index.find(hashes[k], keys[offs[k]:offs[k+1]], &v.rows); ok {
			_, n, list := v.index.ids(v.index.slots[i])
			rows += n + len(list)
			out.Hits = out.Hits[:len(out.Hits)+1]
			out.Hits[len(out.Hits)-1] = ProbeHit{Key: k, Lo: i}
		}
	}
	out.Srcs, out.Rows = slices.Grow(out.Srcs, rows), slices.Grow(out.Rows, rows)
	for i := from; i < len(out.Hits); i++ {
		h := &out.Hits[i]
		first, n, list := v.index.ids(v.index.slots[h.Lo])
		h.Lo = len(out.Rows)
		v.rows.gatherTo(out, first, n, list)
		h.Hi = len(out.Rows)
	}
}

// HasKeyBytes reports whether the AppendKey-encoded key was processed
// (even with zero rows).
func (v *View) HasKeyBytes(ek []byte) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.index.find(hashKey(ek), ek, &v.rows)
	return ok
}

// RowsForKeyBytes returns the ids of the rows with the AppendKey-encoded
// key — their indexes in a Scan taken before the view next loses rows.
func (v *View) RowsForKeyBytes(ek []byte) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	i, ok := v.index.find(hashKey(ek), ek, &v.rows)
	if !ok {
		return nil
	}
	first, n, list := v.index.ids(v.index.slots[i])
	return append(idRange(make([]int, 0, n+len(list)), first, n), list...)
}

// ClaimKeys atomically claims every encoded key for evaluation by one
// caller — the per-(view, region) singleflight behind shared-view
// concurrency. It is all-or-nothing: if any key is already claimed,
// nothing is claimed and the conflicting claim's channel is returned;
// the caller waits on it (holding no claims of its own, so waiting can
// never deadlock), re-probes the view — the other claimant may have
// materialized the keys by then — and retries. On success every key is
// claimed and the caller must ReleaseKeys the same set exactly once,
// on every path including errors.
func (v *View) ClaimKeys(keys []string) (granted bool, busy <-chan struct{}) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range keys {
		if ch, claimed := v.claims[k]; claimed {
			return false, ch
		}
	}
	done := make(chan struct{})
	for _, k := range keys {
		v.claims[k] = done
	}
	return true, nil
}

// ReleaseKeys releases a granted claim, waking every waiter.
func (v *View) ReleaseKeys(keys []string) {
	if len(keys) == 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var done chan struct{}
	for _, k := range keys {
		if ch, ok := v.claims[k]; ok {
			done = ch
			delete(v.claims, k)
		}
	}
	if done != nil {
		close(done)
	}
}

// Footprint returns the on-disk size in bytes.
func (v *View) Footprint() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.log.footprint
}

func (v *View) close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.log.file == nil {
		return nil
	}
	err := v.log.Close()
	// A clean close refreshes the sidecar so the next open can trust
	// the whole log. A dead view skips it — a killed process writes
	// nothing on the way down, and its torn tail must be re-verified.
	v.writeCleanSidecarLocked()
	return err
}
