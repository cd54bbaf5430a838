package storage

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"eva/internal/types"
)

// maxMergeRuns bounds the runs a view may have for the ordered probe to
// serve it: a key the run tried first does not hold visits every other
// run's cursor, so a view that interleaved writers have cut into many
// runs is probed through its key index instead. The bound is the
// crossover BenchmarkOrderedProbeRuns measures: up to four runs the
// merge is faster than the index in most layouts, from eight on it is
// slower in all.
const maxMergeRuns = 4

// idOrder is what the ordered probe (mergeLocked) reads of a view keyed
// on id — one of its key columns is the INTEGER column "id", the frame,
// as in every view the planner makes: the runs of non-decreasing ids the
// rows form, each chunk's zone, and the ids processed with zero rows. It
// is filed where rows are indexed and zero-row keys marked, under the
// view's lock, and is reset and swapped with the rows it describes.
type idOrder struct {
	pos    int   // position of "id" among the key columns
	col    int   // view column of "id"; -1 when the view is not keyed on id
	rest   []int // view columns of the other key columns, in key order
	idOnly bool  // the id is the whole key
	// off is set once a stored id is not an integer (a NULL), or a key of
	// more than the id is processed with zero rows: the ordered probe's
	// premises no longer hold, and the view is probed through the key
	// index until its rows are reset.
	off   bool
	ids   [][]int64 // ids[c][r]: the id of row r of chunk c, read without a Datum
	zones []zone    // zones[c]: the least and the greatest id of chunk c's rows
	// runs[i] is the first row of run i, a maximal range of rows with
	// non-decreasing ids; run i ends where run i+1 starts, the last one at
	// the row count. One storing statement is one run, across flushes.
	runs []int
	last int64 // id of the last stored row
	// zeroIDs holds the ids processed with no rows when the id is the
	// whole key, and zeroHashes[i] the hashKey of zeroIDs[i]'s key;
	// zeroIDs[:sorted] is sorted, and settle merges the rest in.
	zeroIDs    []int64
	zeroHashes []uint64
	sorted     int
}

// zone is a chunk's id range; emptyZone is that of a chunk with no rows.
type zone struct{ min, max int64 }

var emptyZone = zone{min: math.MaxInt64, max: math.MinInt64}

// zeroKey is a zero-row id with its hash, as settle sorts them.
type zeroKey struct {
	id   int64
	hash uint64
}

// newIDOrder returns the empty order of a view with the layout given.
func newIDOrder(schema types.Schema, keyIdx []int) idOrder {
	o := idOrder{pos: idKeyPos(schema, keyIdx), col: -1, idOnly: len(keyIdx) == 1}
	if o.pos >= 0 {
		o.col = keyIdx[o.pos]
		o.rest = slices.Delete(slices.Clone(keyIdx), o.pos, o.pos+1)
	}
	return o
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

// file records, for rows from..to-1, which hold one key — the key of row
// from-1 too when cont is set — its hash, which rows continue it and, for
// the ordered probe, its id: the runs and the zones of the chunks the
// rows fill.
func (s *viewRows) file(from, to int, h uint64, cont bool) {
	o := &s.order
	ordered := o.col >= 0 && !o.off
	var id int64
	if ordered {
		chunk, r := s.at(from)
		if d := chunk.At(r, o.col); d.Kind() == types.KindInt {
			id = d.Int()
		} else {
			o.off, ordered = true, false
		}
	}
	for r := from; r < to; r++ {
		c, i := r>>chunkShift, r&chunkMask()
		s.hashes[c][i] = h
		if r > from || cont {
			s.cont[c][i>>6] |= 1 << (i & 63)
		}
		if ordered {
			o.ids[c][i] = id
			z := &o.zones[c]
			z.min, z.max = min(z.min, id), max(z.max, id)
		}
	}
	if ordered {
		if len(o.runs) == 0 || id < o.last {
			o.runs = append(o.runs, from)
		}
		o.last = id
	}
}

// noteZero records the encoded key ek, new to the index with no rows.
// settle must follow before the next probe.
func (o *idOrder) noteZero(ek []byte, h uint64) {
	switch {
	case o.col < 0 || o.off:
	case !o.idOnly || len(ek) != 9 || ek[0] != byte(types.KindInt):
		o.off = true
	default:
		o.zeroIDs = append(o.zeroIDs, int64(binary.LittleEndian.Uint64(ek[1:])))
		o.zeroHashes = append(o.zeroHashes, h)
	}
}

// settle sorts the zero-row ids noted since the last settle into the
// sorted ones: nothing moves when they ascend past them — one flush of
// ascending frames — and one backward merge places them otherwise.
func (o *idOrder) settle() {
	n := o.sorted
	ids := o.zeroIDs[n:]
	o.sorted = len(o.zeroIDs)
	if len(ids) == 0 || slices.IsSorted(ids) && (n == 0 || o.zeroIDs[n-1] < ids[0]) {
		return
	}
	add := make([]zeroKey, len(ids))
	for i, id := range ids {
		add[i] = zeroKey{id: id, hash: o.zeroHashes[n+i]}
	}
	slices.SortFunc(add, func(a, b zeroKey) int { return cmp.Compare(a.id, b.id) })
	i, j := n-1, len(add)-1
	for w := len(o.zeroIDs) - 1; j >= 0; w-- {
		if i >= 0 && o.zeroIDs[i] > add[j].id {
			o.zeroIDs[w], o.zeroHashes[w], i = o.zeroIDs[i], o.zeroHashes[i], i-1
		} else {
			o.zeroIDs[w], o.zeroHashes[w], j = add[j].id, add[j].hash, j-1
		}
	}
}

// ProbeKeys is one input batch's keys as the probes of the reuse join
// read them: the batch's key columns, which the ordered probe compares
// in place, and the AppendKey encodings and key hashes of the rows that
// need them — those a probe takes the key index for, and those no view
// serves, whose bytes claims, staging and zero-row keys use. A prober
// keeps one and resets it per batch.
type ProbeKeys struct {
	// Hashes[r] is the key hash of row r's key once the row is encoded or
	// a probe has served it: the row's demand hash (udf.DemandHash).
	Hashes  []uint64
	batch   *types.Batch
	keyIdx  []int
	idPos   int             // position of "id" among the key columns, or -1
	rest    [][]types.Datum // the other key columns, in key order
	ordered bool            // the ids are integers, non-decreasing down the batch
	encoded bool
	keys    []byte
	spans   []keySpan // spans[r] is where keys holds row r's key
	cursors []cursor  // the ordered probe's, one per run of the view
}

type keySpan struct{ lo, hi int }

// Reset makes the rows of b, keyed by its columns keyIdx in the view's
// key order, the keys to probe, none of them encoded yet. One pass checks
// whether the key column "id" holds integers that never decrease down the
// batch, which lets a view keyed on id serve the batch's probes by an
// ordered merge.
func (p *ProbeKeys) Reset(b *types.Batch, keyIdx []int) {
	n := b.Len()
	if cap(p.Hashes) < n {
		// Batches of one operator vary in width (an upstream detector
		// fans each frame out into its objects), so grow geometrically.
		c := max(n, 2*cap(p.Hashes))
		p.Hashes, p.spans = make([]uint64, c), make([]keySpan, c)
	}
	p.Hashes, p.spans = p.Hashes[:n], p.spans[:n]
	p.batch, p.keyIdx, p.encoded, p.keys = b, keyIdx, false, p.keys[:0]
	p.idPos = idKeyPos(b.Schema(), keyIdx)
	p.ordered = p.idPos >= 0
	p.rest = p.rest[:0]
	for j, c := range keyIdx {
		if j != p.idPos {
			p.rest = append(p.rest, b.Col(c))
		}
	}
	if p.ordered {
		ids := b.Col(keyIdx[p.idPos])[:n]
		for r := range ids {
			if ids[r].Kind() != types.KindInt || r > 0 && ids[r].Int() < ids[r-1].Int() {
				p.ordered = false
				break
			}
		}
	}
}

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

// mergeableLocked reports whether the ordered probe may serve pk's batch
// from this view: both keyed on id, in the same key position, the batch's
// ids non-decreasing, every key's rows one range of rows, and few enough
// runs. Callers hold mu.
func (v *View) mergeableLocked(pk *ProbeKeys) bool {
	o := &v.rows.order
	return pk.ordered && o.col >= 0 && o.pos == pk.idPos && !o.off &&
		len(o.runs) <= maxMergeRuns && len(v.index.scattered) == 0
}

// mergeLocked is the ordered probe: the reuse join as a merge of the
// batch's non-decreasing ids with the view's runs, reading neither key
// bytes nor the key index (merger.find). A key the runs do not hold is
// looked up, for an id-alone key, in the zero-row ids by a cursor of its
// own. It appends exactly the hits and (chunk, row) pairs the key index
// would, and leaves each served key's filed hash in pk.Hashes. Callers
// hold mu for reading, with mergeableLocked true.
// lint:hotpath ordered probe loop must not allocate per key
func (v *View) mergeLocked(pk *ProbeKeys, sel []int, out *Probed) {
	s, o := &v.rows, &v.rows.order
	pk.cursors = slices.Grow(pk.cursors[:0], len(o.runs))[:len(o.runs)]
	for i, first := range o.runs {
		pk.cursors[i] = cursor{at: first}
	}
	m := merger{s: s, pk: pk, runs: o.runs, cur: pk.cursors, nrows: s.len(), lastX: math.MinInt64}
	ids := pk.batch.Col(pk.keyIdx[pk.idPos])
	out.Hits = slices.Grow(out.Hits, len(sel))
	from, rows, z := len(out.Hits), 0, 0
	for _, k := range sel {
		x := ids[k].Int()
		first, n := m.find(k, x)
		switch {
		case n > 0:
			pk.Hashes[k] = s.hashes[first>>chunkShift][first&chunkMask()]
		case o.idOnly:
			if z = gallopIDs(o.zeroIDs, z, len(o.zeroIDs), x); z == len(o.zeroIDs) || o.zeroIDs[z] != x {
				continue
			}
			pk.Hashes[k] = o.zeroHashes[z]
		default:
			continue
		}
		out.Hits = out.Hits[:len(out.Hits)+1]
		out.Hits[len(out.Hits)-1] = ProbeHit{Key: k, Lo: first, Hi: first + n}
		rows += n
	}
	out.Srcs, out.Rows = slices.Grow(out.Srcs, rows), slices.Grow(out.Rows, rows)
	for i := from; i < len(out.Hits); i++ {
		h := &out.Hits[i]
		first, n := h.Lo, h.Hi-h.Lo
		h.Lo = len(out.Rows)
		s.gatherTo(out, first, n, nil)
		h.Hi = len(out.Rows)
	}
}

// merger is the ordered probe's state over one batch: a cursor per run,
// and which run to try first.
type merger struct {
	s     *viewRows
	pk    *ProbeKeys
	runs  []int
	cur   []cursor // cur[i] is run i's
	nrows int
	// The runs of a view often cover the same frames — statements with
	// different filters storing different objects of them — so a key is
	// looked for first in pref: the run of the last key found, or, for a
	// key of a new id, the run where the previous id's first key was
	// found (head).
	lastX      int64
	pref, head int
	seen       bool // a key of id lastX was found
}

// find returns the rows of probe key k, of id x: the first row and the
// number of rows, n == 0 when no run holds the key. In each run, pref
// first, the cursor jumps past the rows of the run's last match once the
// ids pass it and moves on through the zone map and a galloping search
// (viewRows.seek); the keys of id x are then tried from the run's last
// match on — a frame's objects are probed in the order they were stored,
// past any the probe's filter dropped — and only when no run has the
// key there, once more before it.
// lint:hotpath ordered probe loop must not allocate per key
func (m *merger) find(k int, x int64) (first, n int) {
	s := m.s
	if x != m.lastX {
		m.lastX, m.pref, m.seen = x, m.head, false
	}
	for t := range m.runs {
		i := m.run(t)
		end, cur := m.end(i), &m.cur[i]
		if cur.done > cur.at && cur.doneID < x {
			cur.at = cur.done
		}
		c := s.seek(cur.at, end, x)
		cur.at = c
		switch {
		case c == end || s.id(c) != x:
		case s.order.idOnly:
			return m.hit(i, c, s.keyRows(c, end))
		default:
			if first, n = s.scan(max(c, cur.done), end, end, x, m.pk, k); n > 0 {
				return m.hit(i, first, n)
			}
		}
	}
	if s.order.idOnly {
		return 0, 0
	}
	for t := range m.runs {
		if i := m.run(t); m.cur[i].done > m.cur[i].at {
			if first, n = s.scan(m.cur[i].at, m.cur[i].done, m.end(i), x, m.pk, k); n > 0 {
				return m.hit(i, first, n)
			}
		}
	}
	return 0, 0
}

// cursor is where the ordered probe stands in one run: at is never past
// the run's first row whose id is not below the current key's. The run's
// last match ended at done, and rows at..done-1 all hold the id doneID.
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

// end returns the row where run i ends.
func (m *merger) end(i int) int {
	if i+1 < len(m.runs) {
		return m.runs[i+1]
	}
	return m.nrows
}

// hit records that run i holds the current key at rows first..first+n-1,
// and returns them.
func (m *merger) hit(i, first, n int) (int, int) {
	m.cur[i].done, m.cur[i].doneID, m.pref = first+n, m.lastX, i
	if !m.seen {
		m.head, m.seen = i, true
	}
	return first, n
}

// id returns the id of stored row r.
func (s *viewRows) id(r int) int64 { return s.order.ids[r>>chunkShift][r&chunkMask()] }

// seek returns the first row of c..end-1, a stretch of one run, whose id
// is not below x, or end: chunks whose zone lies below x are skipped
// whole, and the row is found by galloping inside the first one that
// does not.
func (s *viewRows) seek(c, end int, x int64) int {
	for c < end {
		ci := c >> chunkShift
		base := ci << chunkShift
		stop := min(base+1<<chunkShift, end)
		switch z := s.order.zones[ci]; {
		case z.min >= x:
			return c
		case z.max >= x:
			if j := gallopIDs(s.order.ids[ci], c-base, stop-base, x); j < stop-base {
				return base + j
			}
		}
		c = stop
	}
	return end
}

// scan returns the first key of id x from row r — the first row of a key
// — on, before stop, that is probe key k, and the number of its rows
// (n == 0: none), which end by end. It compares the first row of each key
// and ends at the first row of another id.
// lint:hotpath ordered probe loop must not allocate per row
func (s *viewRows) scan(r, stop, end int, x int64, pk *ProbeKeys, k int) (first, n int) {
	for ; r < stop && s.id(r) == x; r++ {
		if !s.continues(r) && s.restMatches(r, pk, k) {
			return r, s.keyRows(r, end)
		}
	}
	return 0, 0
}

// continues reports whether stored row r holds the key of the row before.
func (s *viewRows) continues(r int) bool {
	i := r & chunkMask()
	return s.cont[r>>chunkShift][i>>6]>>(i&63)&1 != 0
}

// keyRows returns the number of rows, from r up to end at most, that
// hold the key of row r, the first of its key's rows: r and the rows
// after it whose cont bit is set, counted a word at a time.
func (s *viewRows) keyRows(r, end int) int {
	n := 1
	for r+n < end {
		c, i := (r+n)>>chunkShift, (r+n)&chunkMask()
		set := bits.TrailingZeros64(^(s.cont[c][i>>6] >> (i & 63)))
		left := min(64-i&63, 1<<chunkShift-i) // bits to the end of the word or chunk
		if set < left {
			n += set
			break
		}
		n += left
	}
	return min(n, end-r)
}

// restMatches reports whether stored row r holds probe key k in every key
// column but the id, under the encoding's equality.
func (s *viewRows) restMatches(r int, pk *ProbeKeys, k int) bool {
	chunk, row := s.at(r)
	for j, c := range s.order.rest {
		if !types.Identical(&chunk.Col(c)[row], &pk.rest[j][k]) {
			return false
		}
	}
	return true
}

// gallopIDs returns the least i in lo..hi-1 with ids[i] >= x, or hi;
// ids[lo:hi] is non-decreasing. The step doubles from lo until it passes
// x, then the last step is bisected, so a key near the cursor — the next
// frame — costs a probe or two.
func gallopIDs(ids []int64, lo, hi int, x int64) int {
	if lo >= hi || ids[lo] >= x {
		return lo
	}
	step := 1
	for lo+step < hi && ids[lo+step] < x {
		lo, step = lo+step, 2*step
	}
	for hi = min(lo+step, hi); lo+1 < hi; {
		if m := int(uint(lo+hi) >> 1); ids[m] < x {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}
