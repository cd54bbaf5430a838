package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"eva/internal/types"
	"eva/internal/xxhash"
)

// hashKey is the hash of an AppendKey-encoded key that each stored row
// keeps. A prober computes it once per key it encodes (ProbeKeys.Encode),
// and the probe hands back the stored one for a key it serves; the apply
// operator's demand accounting counts distinct keys by the same value
// (udf.DemandHash), so no key is hashed twice. It is a variable only so
// that a test can make every key collide.
var hashKey = func(ek []byte) uint64 { return xxhash.Sum64(ek, 0) } // lint:durable key hash, not a checksum

// chunkShift fixes the rows of one view chunk at 1<<chunkShift: row id
// r lives at row r&chunkMask() of chunk r>>chunkShift. 1 024 rows keep
// a sparse dataset's 1 400-row view from paying for thousands of empty
// ones. It is a constant of the layout, not a setting — a variable only
// so that a test can put chunk boundaries inside a handful of rows.
var chunkShift = 10

func chunkMask() int { return 1<<chunkShift - 1 }

// SetChunkShift makes view chunks 1<<shift rows — and a chunk the least a
// log holds for its key index to be written — until restore runs. No view
// may be open across either call.
// lint:testonly root tests put chunk boundaries and key indexes inside a script's few rows
func SetChunkShift(shift int) (restore func()) {
	old := chunkShift
	chunkShift = shift
	return func() { chunkShift = old }
}

// foldRuns bounds the runs a view keeps in memory (viewRows.fold): a
// probe key visits the cursor of every run that does not hold it, and
// BenchmarkOrderedProbeRuns finds the merge's cost per key flat up to
// four runs. Like chunkShift it is a constant of the layout, not a
// setting.
const foldRuns = 4

// errIDOrder is the internal error of a batch that breaks the order every
// probe and store batch arrives in: the scan under each reuse join emits
// ascending ids, and nothing between reorders them.
var errIDOrder = errors.New("storage: internal error: key ids decrease")

// viewRows is a view's resident rows and the order the reuse join reads
// them in. Every view is keyed on the INTEGER column "id", the frame
// (Engine.CreateView checks it), and every batch of rows it stores has
// non-decreasing ids (ProbeKeys.Reset checks it), so its keys form runs
// of non-decreasing ids — one per storing statement — and each key's
// rows are one range of rows.
//
// The rows live in fixed-size column chunks, each allocated once at full
// length and never regrown or re-zeroed. chunks holds the full-length
// headers, which no one mutates after they are made, so a reader that
// copied the list under the view's lock may keep reading the rows that
// existed then while a writer fills later ones; tail is the writer's own
// header over the last chunk's storage — its length is the chunk's fill,
// and readers never see it. Everything else is filed as rows are stored
// (file), under the same lock, and is reset and swapped with the rows.
type viewRows struct {
	chunks []*types.Batch
	tail   *types.Batch
	pos    int   // position of "id" among the key columns
	idCol  int   // view column of "id"
	rest   []int // view columns of the other key columns, in key order
	// runs are the keys with rows, as lists sorted by id. The last is the
	// open run, where keys go while their ids do not fall.
	runs  [][]viewKey
	filed int // rows filed: replay decodes rows before it files them
	zero  zeroKeys
	// An id-only view lists each id at most once among its runs and its
	// zero-row keys, which the covered step counts on (covered). noteID
	// checks it as keys are filed: top is the highest id listed, and
	// twice is set if an id was ever listed again.
	top   int64
	twice bool
}

// viewKey is one processed key as a view lists it: its id, its hashKey —
// the probe hands it back for a key it serves, so that no served key is
// encoded or hashed; an id-only view files none, for a key that is the id
// alone is demanded by its id — its first row and the number of its rows
// or, for a key processed with no rows, where zeroKeys.arena holds its
// encoding and no rows. The count fills the padding after at: a key is
// 24 bytes either way.
type viewKey struct {
	id   int64
	hash uint64
	at   int32
	n    int32
}

// newViewRows returns the empty rows of a view keyed on id with the
// layout given.
func newViewRows(schema types.Schema, keyIdx []int) viewRows {
	pos := idKeyPos(schema, keyIdx)
	return viewRows{pos: pos, idCol: keyIdx[pos], rest: slices.Delete(slices.Clone(keyIdx), pos, pos+1), top: math.MinInt64}
}

// idKeyPos returns the position among the key columns keyIdx of schema of
// the INTEGER column "id", or -1.
func idKeyPos(schema types.Schema, keyIdx []int) int {
	for j, c := range keyIdx {
		if c >= 0 && schema[c].Name == "id" && schema[c].Kind == types.KindInt {
			return j
		}
	}
	return -1
}

// len returns the number of stored rows.
func (s *viewRows) len() int {
	if s.tail == nil {
		return 0
	}
	return (len(s.chunks)-1)<<chunkShift + s.tail.Len()
}

// processed returns the number of processed keys.
func (s *viewRows) processed() int {
	n := len(s.zero.keys)
	for _, ru := range s.runs {
		n += len(ru)
	}
	return n
}

// idOnly reports whether the id is the whole key.
func (s *viewRows) idOnly() bool { return len(s.rest) == 0 }

// room returns the tail to append to and the rows it still takes,
// starting a chunk when the last one is full.
func (s *viewRows) room(schema types.Schema) (*types.Batch, int) {
	if s.tail == nil || s.tail.Len() == 1<<chunkShift {
		chunk := types.NewNullBatch(schema, 1<<chunkShift)
		s.chunks = append(s.chunks, chunk)
		s.tail = chunk.Slice(0, 0)
	}
	return s.tail, 1<<chunkShift - s.tail.Len()
}

// at returns the chunk and the row of it that hold stored row id.
func (s *viewRows) at(id int) (*types.Batch, int) {
	return s.chunks[id>>chunkShift], id & chunkMask()
}

// gatherTo appends the rows first..first+n-1, the rows of the key of
// probed row in, to out as (in, chunk, row) triples, a chunk's stretch of
// the range at a time. out has room for them.
// lint:hotpath probe triple loop must not allocate per row
func (s *viewRows) gatherTo(out *Probed, in, first, n int) {
	at := len(out.Rows)
	out.In, out.Srcs, out.Rows = out.In[:at+n], out.Srcs[:at+n], out.Rows[:at+n]
	ins, srcs, rows := out.In[at:], out.Srcs[at:], out.Rows[at:]
	for j := 0; j < n; {
		chunk, r := s.at(first + j)
		k := min(n-j, 1<<chunkShift-r)
		for i := range k {
			ins[j+i], srcs[j+i], rows[j+i] = in, chunk, r+i
		}
		j += k
	}
}

// file records rows from..to-1, stored together, as the rows of one key
// whose hashKey is h — further rows of the key of row from-1 when cont is
// set, which is the last key of the last run, and adds to its count. A new
// key takes its place in the open run, or a run of its own when its id is
// below the last key's.
func (s *viewRows) file(from, to int, h uint64, cont bool) {
	if s.filed = to; cont {
		ru := s.runs[len(s.runs)-1]
		ru[len(ru)-1].n += int32(to - from)
		return
	}
	chunk, r := s.at(from)
	key := viewKey{id: chunk.Col(s.idCol)[r].Int(), at: int32(from), n: int32(to - from)}
	if !s.idOnly() {
		key.hash = h
	}
	s.noteID(key.id, len(s.zero.keys))
	if n := len(s.runs) - 1; n >= 0 && key.id >= s.runs[n][len(s.runs[n])-1].id {
		s.runs[n] = append(s.runs[n], key)
		return
	}
	s.runs = append(s.runs, []viewKey{key})
	s.fold()
}

// reserve makes room in the open run for n more keys, at least doubling
// it when it must grow: a replay files a log's keys a record at a time
// and cannot see how many records follow, and a run grown a quarter at a
// time, as append grows a long slice, is copied several times over. Up
// to half the run's capacity may stay unused.
func (s *viewRows) reserve(n int) {
	k := len(s.runs) - 1
	if ru := s.runs[k]; cap(ru)-len(ru) < n {
		s.runs[k] = slices.Grow(ru, max(n, len(ru)))
	}
}

// fold keeps the runs at foldRuns or fewer: once a new run passes the
// bound, the smaller half of the closed runs — two at least — become one
// run sorted by id, tiered as a log-structured merge-tree's runs are
// (O'Neil et al., 1996), so a key is folded again only when runs of its
// size have gathered. No row moves and no log byte changes: a run lists
// the first row of each of its keys, and a key's rows stay one range.
// The open run is never folded.
// lint:hotpath run fold loop must not allocate per key
func (s *viewRows) fold() {
	if len(s.runs) <= foldRuns {
		return
	}
	closed := s.runs[:len(s.runs)-1]
	slices.SortStableFunc(closed, func(a, b []viewKey) int { return cmp.Compare(len(a), len(b)) })
	k, n := max(2, len(closed)/2), 0
	for _, ru := range closed[:k] {
		n += len(ru)
	}
	folded, w := make([]viewKey, n), 0
	for _, ru := range closed[:k] {
		w += copy(folded[w:], ru)
	}
	slices.SortFunc(folded, func(a, b viewKey) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.at, b.at)) })
	closed[0] = folded
	s.runs = append(s.runs[:1], s.runs[k:]...)
}

// noteID checks, for an id-only view, that a key of id x about to be
// listed is the first of its id: staging drops every processed key, so
// none should be listed again, and if one is, twice turns the covered
// step off for good. Keys above every id listed pass at once — appends of
// ascending frames file only those — and any other is looked up in the
// runs and the first settled zero-row keys, which are sorted, and against
// the last zero-row key after them: a batch's keys arrive in id order.
func (s *viewRows) noteID(x int64, settled int) {
	switch {
	case !s.idOnly():
	case x > s.top:
		s.top = x
	case s.listed(x, settled):
		s.twice = true
	}
}

// listed reports whether a key of id x is in a run, among the first
// settled zero-row keys or the last zero-row key.
func (s *viewRows) listed(x int64, settled int) bool {
	has := func(keys []viewKey) bool { c := gallop(keys, 0, x); return c < len(keys) && keys[c].id == x }
	z := s.zero.keys
	if slices.ContainsFunc(s.runs, has) || has(z[:settled]) {
		return true
	}
	return len(z) > settled && z[len(z)-1].id == x
}

// A key index (a sealed keyIndexFile beside the view log, DESIGN.md §20
// "Key index") is the filing of the rows of a log prefix as the writer's
// memory held it, after the prefix's length and digest: the row count,
// top, twice, each run as its key count and its keys — id, hash, first
// row and count, 24 bytes — and the zero-row keys as their count and
// their encodings, end to end.

// appendIndex appends the filing of s, as a key index lays it out, to
// buf.
func (s *viewRows) appendIndex(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.len()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.top))
	buf = append(buf, 0)
	if s.twice {
		buf[len(buf)-1] = 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.runs)))
	for _, ru := range s.runs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ru)))
		for _, k := range ru {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k.id))
			buf = binary.LittleEndian.AppendUint64(buf, k.hash)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(k.at))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(k.n))
		}
	}
	z := &s.zero
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(z.keys)))
	for i := range z.keys {
		buf = append(buf, z.key(&z.keys[i])...)
	}
	return buf
}

// indexReader reads a key index front to back. A read past the end sets
// bad, after which every read yields zeros.
type indexReader struct {
	b   []byte
	bad bool
}

func (r *indexReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *indexReader) u64() uint64 {
	if b := r.take(8); !r.bad {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *indexReader) u32() int {
	if b := r.take(4); !r.bad {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// indexSize bounds the byte length of appendIndex's output from above.
func (s *viewRows) indexSize() int {
	n := 8 + 8 + 1 + 4 + 4 + len(s.zero.arena)
	for _, ru := range s.runs {
		n += 4 + 24*len(ru)
	}
	return n
}

// readIndex reads what appendIndex wrote, up to the zero-row keys: the
// row count (as filed), top, twice and the runs. The zero-row keys'
// encodings are left in r for the view to decode. Nothing is sized from
// a count the rest of the index cannot hold.
func (r *indexReader) readIndex() (ix viewRows, nzero int) {
	ix.filed, ix.top = int(r.u64()), int64(r.u64())
	if b := r.take(1); !r.bad {
		ix.twice, r.bad = b[0] == 1, b[0] > 1
	}
	nruns := r.u32()
	if nruns > foldRuns {
		r.bad = true
	}
	for i := 0; i < nruns && !r.bad; i++ {
		n := r.u32()
		keys := r.take(24 * n)
		if r.bad {
			break
		}
		ru := make([]viewKey, n)
		for j := range ru {
			k := keys[24*j:]
			ru[j] = viewKey{
				id:   int64(binary.LittleEndian.Uint64(k)),
				hash: binary.LittleEndian.Uint64(k[8:]),
				at:   int32(binary.LittleEndian.Uint32(k[16:])),
				n:    int32(binary.LittleEndian.Uint32(k[20:])),
			}
		}
		ix.runs = append(ix.runs, ru)
	}
	return ix, r.u32()
}

// adopt files the rows s holds, decoded but not filed, as ix — the filing
// a key index holds (readIndex, with its zero-row keys) — when ix files
// them as staging would have: the row counts match; every run is
// non-empty and lists its keys by id; the keys of the runs tile the rows,
// each key's rows hold its id, and an id-only view files no hash; the
// zero-row keys are sorted by id; and top and twice are what filing
// those keys notes (noteID). It reports whether it did.
func (s *viewRows) adopt(ix *viewRows) bool {
	n := s.len()
	if ix.filed != n || !slices.IsSortedFunc(ix.zero.keys, func(a, b viewKey) int { return cmp.Compare(a.id, b.id) }) {
		return false
	}
	// starts marks each key's first row: a start met twice, or inside
	// another key's rows, is an overlap, and keys that do not overlap
	// and hold n rows in all tile the n rows.
	starts, rows := make([]uint64, (n+63)/64), 0
	for _, ru := range ix.runs {
		if len(ru) == 0 {
			return false
		}
		for j, k := range ru {
			at, m := int(k.at), int(k.n)
			if m < 1 || at < 0 || at > n-m || j > 0 && k.id < ru[j-1].id || s.idOnly() && k.hash != 0 || starts[at>>6]>>(at&63)&1 != 0 {
				return false
			}
			starts[at>>6] |= 1 << (at & 63)
			rows += m
		}
	}
	if rows != n {
		return false
	}
	for _, ru := range ix.runs {
		for _, k := range ru {
			for r := int(k.at); r < int(k.at)+int(k.n); r++ {
				chunk, row := s.at(r)
				id := &chunk.Col(s.idCol)[row]
				if r > int(k.at) && starts[r>>6]>>(r&63)&1 != 0 || id.Kind() != types.KindInt || id.Int() != k.id {
					return false
				}
			}
		}
	}
	top, twice := int64(math.MinInt64), false
	if s.idOnly() {
		lists := append(slices.Clip(ix.runs), ix.zero.keys)
		for _, keys := range lists {
			if len(keys) > 0 {
				top = max(top, keys[len(keys)-1].id)
			}
		}
		twice = !distinctIDs(lists)
	}
	if ix.top != top || ix.twice != twice {
		return false
	}
	s.runs, s.zero, s.top, s.twice, s.filed = ix.runs, ix.zero, top, twice, n
	return true
}

// distinctIDs reports whether no id is listed twice among lists, each
// sorted by id: a merge of them.
func distinctIDs(lists [][]viewKey) bool {
	cur := make([]int, len(lists))
	for last, first := int64(0), true; ; first = false {
		i := -1
		for j, keys := range lists {
			if cur[j] < len(keys) && (i < 0 || keys[cur[j]].id < lists[i][cur[i]].id) {
				i = j
			}
		}
		if i < 0 {
			return true
		}
		x := lists[i][cur[i]].id
		if !first && x == last {
			return false
		}
		last = x
		cur[i]++
	}
}

// zeroKeys is a view's keys processed with no rows — frames without
// detections — sorted by id once settled. arena holds each key's encoding
// behind its uvarint length.
type zeroKeys struct {
	keys  []viewKey
	arena []byte
}

// add records the key ek of id id, hashed h (0 in an id-only view, which
// files no hashes). settle must follow before the next probe.
func (z *zeroKeys) add(id int64, h uint64, ek []byte) {
	z.keys = append(z.keys, viewKey{id: id, hash: h, at: int32(len(z.arena))})
	z.arena = append(binary.AppendUvarint(z.arena, uint64(len(ek))), ek...)
}

// key returns the encoding of key k.
func (z *zeroKeys) key(k *viewKey) []byte {
	n, w := binary.Uvarint(z.arena[k.at:])
	return z.arena[int(k.at)+w:][:n]
}

// settle sorts the keys by id again after add: appends of ascending
// frames leave them sorted, and the sort is stable.
func (z *zeroKeys) settle() {
	byID := func(a, b viewKey) int { return cmp.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(z.keys, byID) {
		slices.SortStableFunc(z.keys, byID)
	}
}

// ProbeKeys is one batch's keys as the view reads them: the batch's key
// columns, which the probe compares in place, and the AppendKey encodings
// and key hashes of the rows that need them — those no view serves, whose
// bytes claims, staging and zero-row keys use. A prober keeps one and
// resets it per batch; the batches it is reset with must carry
// non-decreasing integer ids, each batch's first no lower than the
// previous batch's last.
type ProbeKeys struct {
	// Hashes[r] is the key hash of row r's key once the row is encoded or
	// a probe of a view keyed on more than the id has served it: the row's
	// demand hash (udf.DemandHash).
	Hashes  []uint64
	batch   *types.Batch
	keyIdx  []int
	idPos   int             // position of "id" among the key columns
	rest    [][]types.Datum // the other key columns, in key order
	encoded bool
	keys    []byte
	spans   []keySpan // spans[r] is where keys holds row r's key
	cursors []cursor  // the probe's, one per run of the view
	started bool      // a batch was reset before
	last    int64     // the id of the last row of the batches so far
	dense   bool      // the batch's ids are consecutive and distinct
	err     error     // what Reset found wrong with the batch
}

type keySpan struct{ lo, hi int }

// Reset makes the rows of b, keyed by its columns keyIdx in the view's
// key order, the keys to probe, none of them encoded yet. It checks the
// invariant every probe rests on: the key column "id" holds integers
// that never decrease, within the batch and from the previous one on.
// A batch that breaks it is an error, which Probe returns too. It also
// notes whether the ids are consecutive and distinct — a scan batch's
// are — which lets a probe of the whole batch take the covered step.
func (p *ProbeKeys) Reset(b *types.Batch, keyIdx []int) error {
	n := b.Len()
	if cap(p.Hashes) < n {
		// Batches of one operator vary in width (an upstream detector
		// fans each frame out into its objects), so grow geometrically.
		c := max(n, 2*cap(p.Hashes))
		p.Hashes, p.spans = make([]uint64, c), make([]keySpan, c)
	}
	p.Hashes, p.spans = p.Hashes[:n], p.spans[:n]
	p.batch, p.keyIdx, p.encoded, p.keys, p.err = b, keyIdx, false, p.keys[:0], nil
	p.idPos = idKeyPos(b.Schema(), keyIdx)
	p.rest = p.rest[:0]
	for j, c := range keyIdx {
		if j != p.idPos {
			p.rest = append(p.rest, b.Col(c))
		}
	}
	if p.idPos < 0 {
		p.err = fmt.Errorf("storage: internal error: keys %v of %s have no INTEGER id", keyIdx, b.Schema())
		return p.err
	}
	p.dense = n > 0
	for r, d := range b.Col(keyIdx[p.idPos])[:n] {
		if d.Kind() != types.KindInt {
			p.err = fmt.Errorf("storage: key id %s is not an integer", d)
			return p.err
		}
		x := d.Int()
		if p.started && x < p.last {
			p.err = fmt.Errorf("%w: %d after %d", errIDOrder, x, p.last)
			return p.err
		}
		p.dense = p.dense && (r == 0 || x == p.last+1)
		p.started, p.last = true, x
	}
	return nil
}

// Drop lets go of the last batch reset with and its key columns, keeping
// the storage grown for it, so a ProbeKeys kept idle keeps no batch alive.
// The next batch is the first again: Reset checks no order against the
// ones before.
func (p *ProbeKeys) Drop() {
	clear(p.rest[:cap(p.rest)])
	p.batch, p.keyIdx, p.rest, p.started, p.err = nil, nil, p.rest[:0], false, nil
}

// Dense reports whether the batch's ids are consecutive and distinct, and
// then its first and last.
func (p *ProbeKeys) Dense() (first, last int64, ok bool) {
	if !p.dense || p.err != nil {
		return 0, 0, false
	}
	return p.id(0), p.last, true
}

// id returns the id of row r.
func (p *ProbeKeys) id(r int) int64 { return p.batch.Col(p.keyIdx[p.idPos])[r].Int() }

// Encode encodes and hashes the keys of the rows of sel. A batch is
// encoded once: sel must be within the rows its first Encode was given,
// which holds for a prober whose selection only shrinks.
// lint:hotpath key encoding loop must not allocate per row
func (p *ProbeKeys) Encode(sel []int) {
	if p.encoded {
		return
	}
	p.encoded = true
	for i, r := range sel {
		lo := len(p.keys)
		p.keys = AppendRowKey(p.keys, p.batch, r, p.keyIdx)
		p.spans[r] = keySpan{lo, len(p.keys)}
		p.Hashes[r] = hashKey(p.keys[lo:])
		if i == 0 {
			// Keys of one batch are near-uniform in size: reserve the
			// rest from the first instead of doubling up to it.
			p.keys = slices.Grow(p.keys, (len(sel)-1)*(len(p.keys)+8))
		}
	}
}

// Key returns the AppendKey encoding of row r's key; r must be encoded.
func (p *ProbeKeys) Key(r int) []byte {
	s := p.spans[r]
	return p.keys[s.lo:s.hi]
}

// IDKeys is the set of keys met so far for one id. A caller that meets
// keys in non-decreasing id order — the rows of every probe and store
// batch (ProbeKeys) — dedups them by it exactly while clearing it when
// the id advances, so it holds one frame's keys at most and, once grown,
// allocates nothing. The zero IDKeys is empty.
type IDKeys struct {
	id     int64
	hashes []uint64
	ends   []int // key i is keys[ends[i-1]:ends[i]]
	keys   []byte
}

// Add adds the key of row r of pk, which must be encoded, and returns its
// index among the keys of its id and whether it is new.
// lint:hotpath per-id key dedup must not allocate per key
func (s *IDKeys) Add(pk *ProbeKeys, r int) (int, bool) {
	if id := pk.id(r); id != s.id || len(s.hashes) == 0 {
		s.Reset()
		s.id = id
	}
	h, ek, lo := pk.Hashes[r], pk.Key(r), 0
	for i, kh := range s.hashes {
		if kh == h && string(s.keys[lo:s.ends[i]]) == string(ek) {
			return i, false
		}
		lo = s.ends[i]
	}
	s.hashes, s.keys = append(s.hashes, h), append(s.keys, ek...)
	s.ends = append(s.ends, len(s.keys))
	return len(s.hashes) - 1, true
}

// Reset empties the set, keeping its storage.
func (s *IDKeys) Reset() { s.hashes, s.ends, s.keys = s.hashes[:0], s.ends[:0], s.keys[:0] }

// find is the reuse join's lookup: a merge of the ids of pk's rows sel,
// which never decrease, with the view's runs and its zero-row keys,
// reading neither key bytes nor hashes (merger.find). It appends to hits
// a ProbeHit per processed key, Lo..Hi the ordinals of its rows, and —
// a view keyed on more than the id — leaves the key's hash in pk.Hashes.
// Callers hold the view's lock.
// lint:hotpath ordered probe loop must not allocate per key
func (s *viewRows) find(pk *ProbeKeys, sel []int, hits []ProbeHit) []ProbeHit {
	pk.cursors = slices.Grow(pk.cursors[:0], len(s.runs))[:len(s.runs)]
	clear(pk.cursors)
	m := merger{s: s, pk: pk, cur: pk.cursors, lastX: math.MinInt64}
	ids, hashed := pk.batch.Col(pk.keyIdx[pk.idPos]), !s.idOnly()
	hits = slices.Grow(hits, len(sel))
	for _, k := range sel {
		x, first := ids[k].Int(), 0
		key := m.find(k, x)
		if key != nil {
			first = int(key.at)
		} else if key = m.zero(k, x); key == nil {
			continue
		}
		if hashed {
			pk.Hashes[k] = key.hash
		}
		hits = hits[:len(hits)+1]
		hits[len(hits)-1] = ProbeHit{Key: k, Lo: first, Hi: first + int(key.n)}
	}
	return hits
}

// covered reports whether the view holds every key of pk's batch, whose
// ids must be consecutive and distinct: an id-only view lists each id at
// most once (noteID), so it holds them all when it lists as many keys with
// ids in [x0, xn] as the batch has rows — counted with two gallops per run
// and two on the zero-row keys. It leaves the keys each run holds in that
// range in pk.cursors, at..done-1. Callers hold the view's lock.
func (s *viewRows) covered(pk *ProbeKeys) bool {
	if !pk.dense || !s.idOnly() || s.twice {
		return false
	}
	n := pk.batch.Len()
	x0, xn := pk.id(0), pk.id(n-1)
	pk.cursors = slices.Grow(pk.cursors[:0], len(s.runs))[:len(s.runs)]
	for i, ru := range s.runs {
		lo := gallop(ru, 0, x0)
		pk.cursors[i] = cursor{at: lo, done: above(ru, lo, xn)}
		n -= pk.cursors[i].done - lo
	}
	lo := gallop(s.zero.keys, 0, x0)
	return n == above(s.zero.keys, lo, xn)-lo
}

// serve appends to hits a ProbeHit per key with rows of pk's batch, which
// covered found the view holding, in id order: a merge of the runs' keys
// covered left in pk.cursors that tries the run of the previous key first
// — where a run holds consecutive frames, it holds the next — and takes
// the least id among the runs when that one does not. A key processed
// with no rows gets no hit. Callers hold the view's lock.
// lint:hotpath covered probe loop must not allocate per key
func (s *viewRows) serve(pk *ProbeKeys, hits []ProbeHit) []ProbeHit {
	cur, left := pk.cursors, 0
	for _, c := range cur {
		left += c.done - c.at
	}
	hits = slices.Grow(hits, left)
	x0 := pk.id(0)
	for pref, want := 0, x0; left > 0; left-- {
		i := pref
		if c := cur[i]; c.at == c.done || s.runs[i][c.at].id != want {
			i = -1
			for j, c := range cur {
				if c.at < c.done && (i < 0 || s.runs[j][c.at].id < s.runs[i][cur[i].at].id) {
					i = j
				}
			}
		}
		key := &s.runs[i][cur[i].at]
		cur[i].at++
		pref, want = i, key.id+1
		hits = append(hits, ProbeHit{Key: int(key.id - x0), Lo: int(key.at), Hi: int(key.at + key.n)})
	}
	return hits
}

// merger is the probe's state over one batch: a cursor per run, which run
// to try first, and where the zero-row keys stand.
type merger struct {
	s   *viewRows
	pk  *ProbeKeys
	cur []cursor // cur[i] is run i's
	// The runs of a view often cover the same frames — statements with
	// different filters storing different objects of them — so a key is
	// looked for first in pref: the run of the last key found, or, for a
	// key of a new id, the run where the previous id's first key was
	// found (head).
	lastX      int64
	pref, head int
	seen       bool // a key of id lastX was found
	z          int  // the first zero-row key whose id is not below lastX
}

// find returns the key of probe key k, of id x, in the runs, or nil. In
// each run, pref first, the cursor jumps past the run's last match once
// the ids pass it and gallops on; the keys of id x are then tried from the
// run's last match on — a frame's objects are probed in the order they
// were stored, past any the probe's filter dropped — and only when no run
// has the key there, once more before it.
// lint:hotpath ordered probe loop must not allocate per key
func (m *merger) find(k int, x int64) *viewKey {
	s := m.s
	if x != m.lastX {
		m.lastX, m.pref, m.seen = x, m.head, false
	}
	for t := range s.runs {
		i := m.run(t)
		ru, cur := s.runs[i], &m.cur[i]
		if cur.done > cur.at && cur.doneID < x {
			cur.at = cur.done
		}
		c := gallop(ru, cur.at, x)
		cur.at = c
		switch {
		case c == len(ru) || ru[c].id != x:
		case s.idOnly():
			return m.hit(i, c)
		default:
			if p := m.scan(ru, max(c, cur.done), len(ru), x, k); p >= 0 {
				return m.hit(i, p)
			}
		}
	}
	if s.idOnly() {
		return nil
	}
	for t := range s.runs {
		if i := m.run(t); m.cur[i].done > m.cur[i].at {
			if p := m.scan(s.runs[i], m.cur[i].at, m.cur[i].done, x, k); p >= 0 {
				return m.hit(i, p)
			}
		}
	}
	return nil
}

// cursor is where the probe stands in one run: at is never past the run's
// first key whose id is not below the current key's. The run's last match
// ended at done, and keys at..done-1 all have the id doneID.
type cursor struct {
	at, done int
	doneID   int64
}

// run returns the run to try t-th: pref, then the others in order.
func (m *merger) run(t int) int {
	switch {
	case t == 0:
		return m.pref
	case t <= m.pref:
		return t - 1
	}
	return t
}

// hit records that key p of run i is the current key, and returns it.
func (m *merger) hit(i, p int) *viewKey {
	m.cur[i].done, m.cur[i].doneID, m.pref = p+1, m.lastX, i
	if !m.seen {
		m.head, m.seen = i, true
	}
	return &m.s.runs[i][p]
}

// scan returns the first of keys p..stop-1 of ru that is of id x and probe
// key k, or -1; it ends at the first key of another id.
// lint:hotpath ordered probe loop must not allocate per key
func (m *merger) scan(ru []viewKey, p, stop int, x int64, k int) int {
	for ; p < stop && ru[p].id == x; p++ {
		if m.s.restMatches(int(ru[p].at), m.pk, k) {
			return p
		}
	}
	return -1
}

// zero returns the zero-row key that is probe key k, of id x, or nil.
// lint:hotpath ordered probe loop must not allocate per key
func (m *merger) zero(k int, x int64) *viewKey {
	z := &m.s.zero
	m.z = gallop(z.keys, m.z, x)
	for i := m.z; i < len(z.keys) && z.keys[i].id == x; i++ {
		if m.s.idOnly() || rowHasKey(m.pk.batch, k, m.pk.keyIdx, z.key(&z.keys[i])) {
			return &z.keys[i]
		}
	}
	return nil
}

// restMatches reports whether stored row r holds probe key k in every key
// column but the id, under the encoding's equality.
func (s *viewRows) restMatches(r int, pk *ProbeKeys, k int) bool {
	chunk, row := s.at(r)
	for j, c := range s.rest {
		if !types.Identical(&chunk.Col(c)[row], &pk.rest[j][k]) {
			return false
		}
	}
	return true
}

// gallop returns the first of keys[lo:] whose id is not below x, or
// len(keys); keys is sorted by id. The step doubles from lo until it
// passes x, then the last step is bisected, so a key near the cursor —
// the next frame — costs a probe or two.
func gallop(keys []viewKey, lo int, x int64) int {
	hi := len(keys)
	if lo >= hi || keys[lo].id >= x {
		return lo
	}
	step := 1
	for lo+step < hi && keys[lo+step].id < x {
		lo, step = lo+step, 2*step
	}
	for hi = min(lo+step, hi); lo+1 < hi; {
		if m := int(uint(lo+hi) >> 1); keys[m].id < x {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// above returns the first of keys[lo:] whose id is above x, or len(keys);
// keys is sorted by id.
func above(keys []viewKey, lo int, x int64) int {
	if x == math.MaxInt64 {
		return len(keys)
	}
	return gallop(keys, lo, x+1)
}

// staging is what one stored batch adds to a view (View.stageLocked):
// rows lists the batch's rows to store in the order they are stored, and
// key i's rows start at rows[starts[i]] — the first key's continue the
// last stored row's when cont is set; last reports that the batch's last
// row is among them; pk holds their encodings and hashes. prev and
// unfiled are replay's: the payload of the record just replayed, when
// the next may continue the key it ended with, and that the records are
// decoded without being filed, for a key index files them
// (View.replayRecord). The rest is stageLocked's scratch, kept for the
// next batch.
type staging struct {
	pk       ProbeKeys
	rows     []int
	starts   []int
	cont     bool
	last     bool
	prev     []byte
	unfiled  bool
	lo, hi   []int
	key, ord []int
	hits     []ProbeHit
	seen     IDKeys
}

// stageLocked sets st to what src adds to the view: src holds rows, or
// bare keys, keyed by its columns keyIdx in the view's key order, with
// non-decreasing ids. Keys the view has processed are dropped by the
// same merge a probe runs (find), and each key left keeps all its rows,
// in src order, as one range — also when they come apart in src, as two
// objects of one frame with the same box would. With cont, rows of the
// key of the last stored row that lead src continue it: replay meets them
// where a record boundary cut a key's rows. Callers hold mu (or run
// pre-publish).
func (v *View) stageLocked(src *types.Batch, keyIdx []int, cont bool, st *staging) error {
	pk := &st.pk
	pk.started = false
	if err := pk.Reset(src, keyIdx); err != nil {
		return err
	}
	// The first row of each stretch of rows sharing a key, and the row
	// past it.
	lo, hi := st.lo[:0], st.hi[:0]
	for r := range src.Len() {
		if r > 0 && sameKey(src, keyIdx, r-1, r) {
			hi[len(hi)-1] = r + 1
			continue
		}
		lo, hi = append(lo, r), append(hi, r+1)
	}
	st.lo, st.hi = lo, hi
	// Keys already processed go, but for rows that continue the key filed
	// last.
	hits, w := v.rows.find(pk, lo, st.hits[:0]), 0
	st.hits = hits
	st.cont = cont && len(hits) > 0 && hits[0].Key == 0 && hits[0].Hi > hits[0].Lo && hits[0].Hi == v.rows.filed
	for i, h := 0, 0; i < len(lo); i++ {
		hit := h < len(hits) && hits[h].Key == lo[i]
		if hit {
			h++
		}
		if hit && (i > 0 || !st.cont) {
			continue
		}
		lo[w], hi[w] = lo[i], hi[i]
		w++
	}
	lo, hi = lo[:w], hi[:w]
	st.last = w > 0 && hi[w-1] == src.Len()
	pk.Encode(lo)
	// A key met again under one id joins its first stretch: the stretches
	// are stored by id, then by their key's first stretch among the id's —
	// key[i] is g + j for the j-th key of the id whose first stretch is g.
	key, ord, g, again := slices.Grow(st.key[:0], len(lo))[:len(lo)], slices.Grow(st.ord[:0], len(lo))[:len(lo)], 0, false
	st.key, st.ord = key, ord
	st.seen.Reset()
	for i, r := range lo {
		j, added := st.seen.Add(pk, r)
		if j == 0 && added {
			g = i
		}
		ord[i], key[i], again = i, g+j, again || !added
	}
	if again {
		slices.SortStableFunc(ord, func(a, b int) int { return cmp.Compare(key[a], key[b]) })
	}
	st.rows, st.starts = st.rows[:0], st.starts[:0]
	for x, i := range ord {
		if x == 0 || key[i] != key[ord[x-1]] {
			st.starts = append(st.starts, len(st.rows))
		}
		for r := lo[i]; r < hi[i]; r++ {
			st.rows = append(st.rows, r)
		}
	}
	return nil
}

// sameKey reports whether rows a and b of src hold the same key in
// columns keyIdx.
func sameKey(src *types.Batch, keyIdx []int, a, b int) bool {
	for _, c := range keyIdx {
		col := src.Col(c)
		if !types.Identical(&col[a], &col[b]) {
			return false
		}
	}
	return true
}
