package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"eva/internal/faults"
	"eva/internal/types"
)

// View is an append-only materialized view of UDF results. Rows carry
// the key columns — the frame id among them — plus the UDF's output
// columns; separately, the view records every *processed key* so that
// keys whose evaluation produced zero rows (e.g. frames with no
// detections) are not re-evaluated.
//
// The view persists every append to its backing file, a record log in
// the frame layout of DESIGN.md §20, and rebuilds its rows when
// reopened. Appends are crash-safe: the log record is built and
// written to disk *before* any in-memory state changes, and the open
// truncates a torn tail (a record cut short by a crash) back to the last
// complete record. Because appends are idempotent per key, a re-run
// STORE after recovery converges to the uninterrupted state.
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
	// keySchema is the key columns', and keyOwn their positions in it:
	// the layout of a batch of bare keys (keyBatch).
	keySchema types.Schema
	keyOwn    []int

	mu sync.RWMutex
	// rows holds the stored rows in fixed-size column chunks, a row's id
	// its position in append order, and the processed keys: a key is
	// processed iff it has rows or is among the zero-row keys.
	rows viewRows // guarded by mu
	// relaid is set while rows lists its keys otherwise than a staged
	// replay of the log would: the replay filed a run through a copy, or
	// a compaction rewrote the log under the runs. No key index is
	// written while it is set. guarded by mu.
	relaid bool
	// indexed is the log length the key index beside the log describes,
	// 0 when there is none that this log matches. guarded by mu.
	indexed int64
	// stage is replay's staging scratch, dropped when replay ends.
	stage *staging
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
	// claims maps an encoded key to the in-flight claim that is
	// evaluating it (per-(view, key) singleflight across sessions);
	// the channel closes when the claim is released. guarded by mu.
	claims map[string]chan struct{}
	// touch is the engine's access ordinal at this view's last lookup,
	// read by the eviction ranker (atomic — ordinals come from the
	// engine's touchSeq, bumped per engine-level lookup, not per row).
	touch atomic.Uint64
}

// View log payloads (the log is a viewLog record log, DESIGN.md §20):
// the header body is the row schema and the key column names; a rows
// record holds count encoded datum rows, a keys record count encoded key
// tuples, and a predicate record (count 0) a snapshot of the aggregated
// predicate, empty for FALSE — logs written before the kind existed
// simply have none. Version 1 (no checksums) is no longer readable;
// views are rebuilt from UDF evaluation, so an unsupported version is
// surfaced as an error rather than migrated.

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
		if err := v.setLayout(schema, keyCols); err != nil {
			return nil, fmt.Errorf("storage: view %s: %w", name, err)
		}
	}
	// Files an interrupted process can leave beside the log: compaction's
	// uncommitted next generation, and the clean sidecar, quarantine
	// manifest and eviction tombstone older versions kept, each with its
	// staging file, and the key index's staging file. The log alone holds
	// the view, so they are garbage.
	for _, p := range []string{compactPath(path), path + ".clean", path + ".quar", path + ".tomb"} {
		_ = os.Remove(p)
		_ = os.Remove(scratchPath(p))
	}
	_ = os.Remove(scratchPath(indexPath(path)))
	var holes []LostRange
	headerLost := false
	index, _ := os.ReadFile(indexPath(path))
	log, err := OpenTailLog(path, "storage: view "+name, faults.SiteViewWrite(name), v.encodeHeader(), budget, func(data []byte) (int, error) {
		s, rerr := v.replayWith(data, index)
		if errors.Is(rerr, errHeaderCorrupt) && !fromHeader {
			// The header itself is unreadable, so no record can be
			// attributed to a schema: the whole generation is lost.
			// Views are derived data — quarantine everything and start
			// a fresh log rather than dying. Returning valid = 0 makes
			// the shared truncation drop the whole generation.
			v.resetReplayState()
			holes, headerLost = []LostRange{{Lo: 0, Hi: int64(len(data))}}, true
			return 0, nil
		}
		if rerr != nil {
			return 0, rerr
		}
		// Mid-log holes before valid stay on disk — they are
		// quarantined, and truncating them would shift every later
		// record's LSN; only the torn tail past valid is dropped.
		holes = s.holes
		return s.valid, nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: view %s: %w", name, err)
	}
	if headerLost {
		// Header loss is accounted as a quarantined hole, not as a torn
		// tail.
		log.recovered = 0
	}
	v.log = log                         // lint:nolock pre-publish (openView)
	v.adoptHolesLocked(holes)           // lint:nolock pre-publish (openView)
	if index != nil && v.indexed == 0 { // lint:nolock pre-publish (openView)
		// Missing, stale, torn or damaged: the replay staged every record,
		// and the file is garbage.
		_ = os.Remove(indexPath(path))
	}
	return v, nil
}

// indexPath names the key index beside the view log at path.
func indexPath(path string) string { return path + ".idx" }

// setLayout fixes the row layout, which must key the view on the INTEGER
// column "id" (viewRows). It runs inside openView before the view is
// published.
func (v *View) setLayout(schema types.Schema, keyCols []string) error {
	for i, kc := range keyCols {
		v.keyIdx = append(v.keyIdx, schema.IndexOf(kc))
		v.keySchema = append(v.keySchema, schema[v.keyIdx[i]])
		v.keyOwn = append(v.keyOwn, i)
	}
	if idKeyPos(schema, v.keyIdx) < 0 {
		return fmt.Errorf("keys %v have no INTEGER id column", keyCols)
	}
	v.schema, v.keyCols = schema.Clone(), slices.Clone(keyCols)
	v.rows = newViewRows(v.schema, v.keyIdx) // lint:nolock pre-publish (openView)
	return nil
}

func (v *View) encodeHeader() []byte {
	buf := beginFile(nil, viewLog)
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

// resetReplayState discards the rows and whatever else a replay builds,
// so that one can start from scratch. It runs inside openView before the
// view is published or, from eviction and the scrub pass's header reset,
// with mu held.
func (v *View) resetReplayState() {
	v.rows = newViewRows(v.schema, v.keyIdx) // lint:nolock pre-publish (openView)
	v.pred = nil                             // lint:nolock pre-publish (openView)
	v.relaid = false                         // lint:nolock pre-publish (openView)
}

// dropIndexLocked deletes the key index: the log it described is gone.
// Callers hold mu.
func (v *View) dropIndexLocked() {
	_ = os.Remove(indexPath(v.path))
	v.indexed = 0
}

// replay rebuilds in-memory state from the log, verifying every record,
// and returns what the frame scanner (scanLog) found: the offset past
// the last record it accepted and the holes it salvaged around, for the
// quarantine. An unreadable header is errHeaderCorrupt (the whole
// generation is lost — views are derived data, so the caller salvages by
// starting over). It runs inside openView before the view is published,
// so it may touch guarded fields without the lock.
func (v *View) replay(data []byte) (logScan, error) { return v.replayWith(data, nil) }

// replayWith is replay given index, the key index beside the log when
// the open read one: when it describes a prefix of data, the records
// there are decoded without staging them (replayIndexed); otherwise
// every record is staged.
func (v *View) replayWith(data, index []byte) (logScan, error) {
	schema, keyCols, off, err := parseViewHeader(data)
	if err != nil {
		return logScan{}, err
	}
	switch {
	case v.schema == nil:
		for _, kc := range keyCols {
			if !schema.Has(kc) {
				return logScan{}, errHeaderCorrupt
			}
		}
		if err := v.setLayout(schema, keyCols); err != nil {
			return logScan{}, err
		}
	case !schema.Equal(v.schema):
		return logScan{}, fmt.Errorf("schema mismatch: file has %s, want %s", schema, v.schema)
	case len(keyCols) != len(v.keyCols):
		// Names are settled by schema equality; only the count can differ.
		return logScan{}, fmt.Errorf("key count mismatch: file has %d, want %d", len(keyCols), len(v.keyCols))
	}
	v.stage = &staging{}
	defer func() { v.stage = nil }()
	if index != nil {
		if s, ok, err := v.replayIndexed(data, off, index); ok {
			return s, err
		}
		v.resetReplayState()
		v.stage = &staging{}
	}
	return scanLog(data, off, viewLog, v.replayRecord)
}

// replayIndexed is replay's way in through a key index (DESIGN.md §20
// "Key index"). The index applies when it opens as a sealed key index
// and data's first L bytes, L the prefix length it names, match its
// digest: the records of that prefix are then decoded — rows into their
// chunks, the last predicate snapshot kept — but not staged, and the
// index files the rows instead, once viewRows.adopt has checked it
// against them. The records after L are replayed as always. It reports
// false when the index does not apply or the prefix holds a hole, with
// whatever it decoded to be reset; the error is the replay of the
// records after L.
func (v *View) replayIndexed(data []byte, off int, index []byte) (logScan, bool, error) {
	body, ok := openSealed(index, keyIndexFile)
	r := indexReader{b: body}
	at, sum := r.u64(), r.u64()
	if !ok || r.bad || at < uint64(off) || at > uint64(len(data)) || digest(data[:at]) != sum {
		return logScan{}, false, nil
	}
	v.stage.unfiled = true
	s, err := scanLog(data[:at], off, viewLog, v.replayRecord)
	v.stage.unfiled = false
	if err != nil || s.valid != int(at) || len(s.holes) > 0 || !v.adoptIndexLocked(&r) {
		return logScan{}, false, nil
	}
	v.indexed = int64(at) // lint:nolock replay runs inside openView before the view is published
	tail, err := scanLog(data, int(at), viewLog, v.replayRecord)
	tail.records += s.records
	return tail, true, err
}

// adoptIndexLocked reads the key index left in r — the filing and the
// zero-row keys, whose hashes are the hashes of their encodings — and
// files the decoded rows by it (viewRows.adopt). It reports whether it
// did. Callers run pre-publish.
func (v *View) adoptIndexLocked(r *indexReader) bool {
	ix, nzero := r.readIndex()
	if r.bad {
		return false
	}
	kb := types.NewBatchCapacity(v.keySchema, min(nzero, len(r.b)))
	if n, err := kb.AppendEncoded(r.b, nzero); err != nil || n != len(r.b) {
		return false
	}
	ids := kb.Col(v.rows.pos)
	var ek []byte
	for i := range nzero {
		if ids[i].Kind() != types.KindInt {
			return false
		}
		ek = AppendRowKey(ek[:0], kb, i, v.keyOwn)
		h := uint64(0)
		if !v.rows.idOnly() {
			h = hashKey(ek)
		}
		ix.zero.add(ids[i].Int(), h, ek)
	}
	return v.rows.adopt(&ix)
}

// parseViewHeader reads the log header: the row schema, the key column
// names and the offset of the first record. A header it cannot read is
// errHeaderCorrupt.
func parseViewHeader(data []byte) (schema types.Schema, keyCols []string, off int, err error) {
	if off, err = openLog(data, viewLog); err != nil {
		return nil, nil, 0, err
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
	if off >= len(data) {
		return nil, nil, 0, errHeaderCorrupt
	}
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

// replayRecord decodes one verified record payload into memory.
func (v *View) replayRecord(kind byte, count int, payload []byte) error {
	off := 0
	switch kind {
	case recRows:
		// A record's rows go where the next append's would: into the
		// tail chunk, and on into fresh ones when it fills. A chunk
		// boundary may cut a key's rows, and so may a compacted
		// generation's record boundary, after every compactChunkRows
		// rows; nothing else does — an append never adds to a key. So a
		// record's first rows continue the key filed last only after a
		// record of that many rows whose last was filed, and only if the
		// two differ: a retried append that had landed writes its
		// record again byte for byte, and that copy is merged away. A
		// compacted key whose rows repeat byte for byte across such a
		// cut would read as a copy too; the compaction's shadow replay
		// then rebuilds fewer rows than the view holds, and the
		// generation is refused (verifyGenerationLocked).
		// Rows a key index files (replayIndexed) are decoded but not
		// staged, and staging would have filed them all.
		join := v.stage.unfiled || v.stage.prev != nil && !bytes.Equal(payload, v.stage.prev)
		for left := count; left > 0; {
			tail, room := v.rows.room(v.schema) // lint:nolock replay runs inside openView before the view is published
			k, at := min(left, room), tail.Len()
			n, err := tail.AppendEncoded(payload[off:], k)
			if err == nil && !v.stage.unfiled {
				join, err = v.fileDecodedLocked(tail, at, join)
			}
			if err != nil {
				return fmt.Errorf("row record: %w", err)
			}
			off, left = off+n, left-k
		}
		v.stage.prev = nil
		if join && count == compactChunkRows {
			v.stage.prev = payload
		}
	case recKeys:
		if v.stage.unfiled {
			// The key index lists the zero-row keys.
			off = len(payload)
			break
		}
		kb := types.NewBatch(v.keySchema)
		n, err := kb.AppendEncoded(payload, count)
		if err == nil {
			err = v.markLocked(kb)
		}
		if err != nil {
			return fmt.Errorf("key record: %w", err)
		}
		off = n
	case recPred:
		// A snapshot: the last one replayed wins. Copied, because payload
		// aliases the whole log image.
		v.pred = append([]byte(nil), payload...) // lint:nolock replay runs inside openView before the view is published
		off = len(payload)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	if kind != recRows {
		v.stage.prev = nil
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

// setBudget installs (or clears) the disk budget, charging the log so
// late installation still accounts for it.
func (v *View) setBudget(b *DiskBudget) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.log.setBudget(b)
}

// Name returns the view name.
func (v *View) Name() string { return v.name }

// Schema returns the view's row schema.
func (v *View) Schema() types.Schema { return v.schema }

// KeyColumns returns the key column names.
func (v *View) KeyColumns() []string { return v.keyCols }

// RecoveredBytes returns the size of the torn tail dropped when the
// view was opened (0 for a clean log).
// lint:testonly crash and salvage tests check the dropped torn tail
func (v *View) RecoveredBytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.log.recovered
}

// AppendKey appends the canonical encoding of a key tuple to buf and
// returns it: the form keys take in the view index, for probe loops
// that reuse a scratch buffer and look up with HasKeyBytes.
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

// sortKeys returns kb, a batch of keys, with its rows sorted by id: a
// processed-keys list is a set, and a compacted log lists it in byte
// order. An id that is no integer sorts first, for the staging that
// follows to refuse.
func (v *View) sortKeys(kb *types.Batch) *types.Batch {
	ids := kb.Col(v.rows.pos) // lint:nolock the layout is fixed at open
	byID := func(a, b int) int {
		if ids[a].Kind() != types.KindInt || ids[b].Kind() != types.KindInt {
			return cmp.Compare(ids[a].Kind(), ids[b].Kind())
		}
		return cmp.Compare(ids[a].Int(), ids[b].Int())
	}
	perm := make([]int, kb.Len())
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, byID)
	sorted := types.NewBatchCapacity(v.keySchema, len(perm))
	_ = sorted.AppendGather(kb, nil, perm, nil, nil, nil) // the schemas are the same
	return sorted
}

// fileDecodedLocked files rows at.. of the tail chunk, which replay has
// just decoded, as the appends that wrote them filed them: a run of
// non-decreasing ids at a time — a compacted record holds several —
// staged in place against the rows before it. With join, rows that lead
// them with the last filed key continue it: a boundary cut its rows. A
// run that staging would not keep as it lies — a key processed before,
// or one whose rows come apart, which no append writes — is stored as
// staging orders it, through a copy. It reports whether the last row
// decoded was filed. Callers run pre-publish.
func (v *View) fileDecodedLocked(tail *types.Batch, at int, join bool) (bool, error) {
	st, base, last := v.stage, v.rows.len()-tail.Len(), join
	for a := at; a < tail.Len(); {
		ids, b := tail.Col(v.rows.idCol), a+1
		for b < tail.Len() && !(ids[b].Kind() == types.KindInt && ids[b-1].Kind() == types.KindInt && ids[b].Int() < ids[b-1].Int()) {
			b++
		}
		if err := v.stageLocked(tail.Slice(a, b), v.keyIdx, join && a == at, st); err != nil {
			return false, err
		}
		last = st.last
		if len(st.rows) != b-a || !slices.IsSorted(st.rows) {
			// Put the run back in staging's order, then the rows after
			// it; the schemas are the view's own, so no copy can fail.
			v.relaid = true
			rest := types.NewBatch(v.schema)
			_ = rest.AppendRange(tail, a, tail.Len())
			tail.Truncate(a)
			_ = tail.AppendGather(rest, nil, st.rows, nil, nil, nil)
			_ = tail.AppendRange(rest, b-a, rest.Len())
			b = a + len(st.rows)
		}
		v.fileStagedLocked(base+a, st)
		a = b
	}
	return last, nil
}

// fileStagedLocked files the rows st stages, stored from row from on.
// Callers hold mu (or run pre-publish).
func (v *View) fileStagedLocked(from int, st *staging) {
	for i, at := range st.starts {
		end := len(st.rows)
		if i+1 < len(st.starts) {
			end = st.starts[i+1]
		}
		v.rows.file(from+at, from+end, st.pk.Hashes[st.rows[at]], i == 0 && st.cont)
		if i == 0 && v.stage != nil {
			// A replay files the record's other keys where the first went
			// — they are in id order — and makes room for them at once
			// (viewRows.reserve). An append's run grows as append grows
			// it, with less capacity left unused.
			v.rows.reserve(len(st.starts) - 1)
		}
	}
}

// storeLocked copies the rows of src that st stages into the tail chunk
// — storage that already exists — and on into fresh chunks when it fills,
// and files them. Callers hold mu (or run pre-publish).
func (v *View) storeLocked(src *types.Batch, st *staging) {
	from := v.rows.len()
	for idx := st.rows; len(idx) > 0; {
		tail, room := v.rows.room(v.schema)
		k := min(len(idx), room)
		// The schemas are the view's own on both sides.
		_ = tail.AppendGather(src, nil, idx[:k], nil, nil, nil)
		idx = idx[k:]
	}
	v.fileStagedLocked(from, st)
}

// markLocked records the keys of kb, a batch of keys, as processed with
// no rows, all but those processed already. Callers hold mu (or run
// pre-publish).
func (v *View) markLocked(kb *types.Batch) error {
	kb = v.sortKeys(kb)
	st := &staging{}
	if err := v.stageLocked(kb, v.keyOwn, false, st); err != nil {
		return err
	}
	z := &v.rows.zero
	settled := len(z.keys)
	for _, at := range st.starts {
		r := st.rows[at]
		h := st.pk.Hashes[r]
		if v.rows.idOnly() {
			h = 0
		}
		v.rows.noteID(st.pk.id(r), settled)
		z.add(st.pk.id(r), h, st.pk.Key(r))
	}
	z.settle()
	return nil
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
	if v.log.dead {
		return 0, v.log.check()
	}

	// Phase 1 (pure): decide which rows and keys are new and encode the
	// log record. No in-memory state changes yet, so a row is stored iff
	// its key was unprocessed when this call began — sibling rows of a
	// key this very batch introduces all pass. The records are built in
	// place in one buffer sized for every row being new, so encoding
	// never regrows it.
	if rows == nil {
		rows = types.NewBatch(v.schema)
	}
	keys := types.NewBatchCapacity(v.keySchema, len(processedKeys))
	for _, key := range processedKeys {
		if err := keys.AppendRow(key...); err != nil {
			return 0, fmt.Errorf("storage: view %s: key: %w", v.name, err)
		}
	}
	keys = v.sortKeys(keys)
	rs, ks := &staging{}, &staging{}
	err := v.stageLocked(rows, v.keyIdx, false, rs)
	if err == nil {
		err = v.stageLocked(keys, v.keyOwn, false, ks)
	}
	if err != nil {
		return 0, fmt.Errorf("storage: view %s: %w", v.name, err)
	}
	out := beginRecord(make([]byte, 0, 2*(recHeaderLen+recSumLen)+rows.EncodedSize()), recRows)
	for _, r := range rs.rows {
		for c := range v.schema {
			out = rows.Col(c)[r].AppendBinary(out)
		}
	}
	if len(rs.rows) > 0 {
		out = endRecord(out, 0, len(rs.rows))
	} else {
		out = out[:0]
	}
	keysAt := len(out)
	out = beginRecord(out, recKeys)
	for _, at := range ks.starts {
		out = append(out, ks.pk.Key(ks.rows[at])...)
	}
	if len(ks.starts) > 0 {
		out = endRecord(out, keysAt, len(ks.starts))
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

	// Phase 3: memory, now that the record is durable — what replay will
	// rebuild from it.
	v.storeLocked(rows, rs)
	if err := v.markLocked(keys); err != nil {
		return 0, fmt.Errorf("storage: view %s: %w", v.name, err)
	}
	return len(rs.rows), nil
}

// Scan returns a copy of all stored rows, in append order: O(rows). The
// probe path does not come here — it reads the chunks in place
// (Probe); this is for the fuzzy index, tests and the benchmark.
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

// KeyHashes returns the KeyHash filed for each stored row, in row order:
// 0 throughout an id-only view, which files none.
// lint:testonly tests check the filed hashes against the rows' keys
func (v *View) KeyHashes() []uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]uint64, v.rows.len())
	for _, keys := range v.rows.runs {
		for _, k := range keys {
			for r := range k.n {
				out[int(k.at+r)] = k.hash
			}
		}
	}
	return out
}

// ProcessedCount returns the number of distinct processed keys.
// lint:testonly view digests and storage tests count the keys
func (v *View) ProcessedCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.rows.processed()
}

// Probed accumulates what the probes of one input batch found: a hit
// per processed key, and the stored rows of all of them as gather
// triples — In[i] is the probed batch's row, Srcs[i] a view chunk and
// Rows[i] a row of it — ready to be gathered. One probe writes its
// triples in ascending In order. The chunks are the ones the probe read
// under the view's lock and stay as they were then whatever appends,
// salvage and eviction do to the view afterwards. A prober keeps one and
// truncates it from batch to batch.
//
// Covered reports that the last Probe took the covered step: the view
// held every key it was given, and that probe's hits are the keys with
// rows only — a key without a hit was processed with none — and it left
// no hashes in the ProbeKeys.
type Probed struct {
	Hits    []ProbeHit
	In      []int
	Srcs    []*types.Batch
	Rows    []int
	Covered bool
}

// ProbeHit is one processed key found by Probe: Key is its row in the
// probed batch, and its rows are triples Lo..Hi-1 of the Probed it was
// added to (none for a key processed with no rows).
type ProbeHit struct{ Key, Lo, Hi int }

// Probe is the probe side of the reuse join. Under one read lock it looks
// up the key of every row of pk's batch that sel selects (ascending) —
// an ordered merge of the batch's ids with the view's runs, which reads
// no key bytes (viewRows.find) — and appends to out a ProbeHit per
// processed key and a triple per row it has, leaving each found key's
// hash in pk.Hashes when the view is keyed on more than the id. A batch
// that Reset refused is an error here too.
//
// Its first step is the covered one: when sel is the whole batch, its ids
// are consecutive and distinct, and an id-only view holds every one of
// them (viewRows.covered), the join has no gaps on the view's side and is
// a range copy — a hit per key with rows, in id order (viewRows.serve),
// and out.Covered set. sel must be the whole batch, for the step serves
// every row of it: a prober that has had rows served by an earlier view
// passes only the rest, and the merge serves those.
func (v *View) Probe(pk *ProbeKeys, sel []int, out *Probed) error {
	if pk.err != nil {
		return pk.err
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	from := len(out.Hits)
	if out.Covered = len(sel) == pk.batch.Len() && v.rows.covered(pk); out.Covered {
		out.Hits = v.rows.serve(pk, out.Hits)
	} else {
		out.Hits = v.rows.find(pk, sel, out.Hits)
	}
	rows := 0
	for _, h := range out.Hits[from:] {
		rows += h.Hi - h.Lo
	}
	out.In, out.Srcs, out.Rows = slices.Grow(out.In, rows), slices.Grow(out.Srcs, rows), slices.Grow(out.Rows, rows)
	for i := from; i < len(out.Hits); i++ {
		h := &out.Hits[i]
		first, n := h.Lo, h.Hi-h.Lo
		h.Lo = len(out.Rows)
		v.rows.gatherTo(out, h.Key, first, n)
		h.Hi = len(out.Rows)
	}
	return nil
}

// HasKeyBytes reports whether the AppendKey-encoded key was processed
// (even with zero rows).
func (v *View) HasKeyBytes(ek []byte) bool { return v.RowsForKeyBytes(ek) != nil }

// RowsForKeyBytes returns the ids of the rows with the AppendKey-encoded
// key — their indexes in a Scan taken before the view next loses rows —
// and nil when the key was not processed. It is Probe for a batch of one
// key, decoded from ek.
func (v *View) RowsForKeyBytes(ek []byte) []int {
	kb := types.NewBatch(v.keySchema)
	var pk ProbeKeys
	if n, err := kb.AppendEncoded(ek, 1); err != nil || n != len(ek) || pk.Reset(kb, v.keyOwn) != nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	hits := v.rows.find(&pk, []int{0}, nil)
	if len(hits) == 0 {
		return nil
	}
	ids := make([]int, 0, hits[0].Hi-hits[0].Lo)
	for id := hits[0].Lo; id < hits[0].Hi; id++ {
		ids = append(ids, id)
	}
	return ids
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
	return v.log.Close()
}

// closeClean is close at a clean shutdown: it first writes the key
// index (writeIndexLocked).
func (v *View) closeClean() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.writeIndexLocked()
	return v.log.Close()
}

// writeIndexLocked writes the key index of the log as it stands
// (DESIGN.md §20 "Key index") when a reopen would use it and the one on
// disk, if any, is older: the log is open, alive and whole — no
// quarantine — and has grown since that index; its rows fill a chunk at
// least; and rows lists its keys as a staged replay would. Like the
// table record the index is derived data: written outside the disk
// budget and without fault draws, it moves no log byte, and a failure
// only costs the next open a staged replay. Callers hold mu.
func (v *View) writeIndexLocked() {
	l := v.log
	if l.file == nil || l.dead || v.quar != nil || v.relaid || l.footprint == v.indexed || v.rows.len() < 1<<chunkShift {
		return
	}
	data, err := os.ReadFile(v.path)
	if err != nil || int64(len(data)) != l.footprint {
		return
	}
	buf := beginFile(make([]byte, 0, preambleLen+16+v.rows.indexSize()+recSumLen), keyIndexFile)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
	buf = binary.LittleEndian.AppendUint64(buf, digest(data))
	if writeFileAtomic(indexPath(v.path), sealFile(v.rows.appendIndex(buf))) == nil {
		v.indexed = l.footprint
	}
}
