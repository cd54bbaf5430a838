package storage

import (
	"encoding/binary"
	"slices"

	"eva/internal/types"
	"eva/internal/xxhash"
)

// hashKey is the hash a view's key index files an AppendKey-encoded key
// under, and the one each stored row keeps. A prober computes it once per
// key it encodes (ProbeKeys.Encode), and the ordered probe hands back the
// stored one for a key it serves; the apply operator's demand accounting
// counts distinct keys by the same value (udf.DemandHash), so no key is
// hashed twice. It is a variable only so that a test can make every key
// collide.
var hashKey = func(ek []byte) uint64 { return xxhash.Sum64(ek, 0) } // lint:durable key hash, not a checksum

// chunkShift fixes the rows of one view chunk at 1<<chunkShift: row id
// r lives at row r&chunkMask() of chunk r>>chunkShift. 1 024 rows keep
// a sparse dataset's 1 400-row view from paying for thousands of empty
// ones. It is a constant of the layout, not a setting — a variable only
// so that a test can put chunk boundaries inside a handful of rows.
var chunkShift = 10

func chunkMask() int { return 1<<chunkShift - 1 }

// viewRows is a view's resident rows: fixed-size column chunks, each
// allocated once at full length and never regrown or re-zeroed. chunks
// holds the full-length headers, which no one mutates after they are
// made, so a reader that copied the list under the view's lock may keep
// reading the rows that existed then while a writer fills later ones;
// tail is the writer's own header over the last chunk's storage — its
// length is the chunk's fill, and readers never see it. hashes and order
// are filed as rows are indexed, under the same lock.
type viewRows struct {
	chunks []*types.Batch
	tail   *types.Batch
	keyIdx []int
	// hashes[c][r] is the hashKey of the key of row r of chunk c: the
	// ordered probe hands it back for a row it serves, so that no served
	// key is encoded or hashed.
	hashes [][]uint64
	// cont[c] has bit r set when row r of chunk c holds the key of the row
	// before it: a key's rows are a row whose bit is clear and the set
	// bits that follow it, which the ordered probe counts a word at a time.
	cont  [][]uint64
	order idOrder
}

// len returns the number of stored rows.
func (s *viewRows) len() int {
	if s.tail == nil {
		return 0
	}
	return (len(s.chunks)-1)<<chunkShift + s.tail.Len()
}

// room returns the tail to append to and the rows it still takes,
// starting a chunk when the last one is full.
func (s *viewRows) room(schema types.Schema) (*types.Batch, int) {
	if s.tail == nil || s.tail.Len() == 1<<chunkShift {
		chunk := types.NewNullBatch(schema, 1<<chunkShift)
		s.chunks = append(s.chunks, chunk)
		s.hashes = append(s.hashes, make([]uint64, 1<<chunkShift))
		s.cont = append(s.cont, make([]uint64, (1<<chunkShift+63)/64))
		if s.order.col >= 0 {
			s.order.ids = append(s.order.ids, make([]int64, 1<<chunkShift))
			s.order.zones = append(s.order.zones, emptyZone)
		}
		s.tail = chunk.Slice(0, 0)
	}
	return s.tail, 1<<chunkShift - s.tail.Len()
}

// at returns the chunk and the row of it that hold stored row id.
func (s *viewRows) at(id int) (*types.Batch, int) {
	return s.chunks[id>>chunkShift], id & chunkMask()
}

// hasKey reports whether stored row id holds exactly the key ek encodes.
func (s *viewRows) hasKey(id int, ek []byte) bool {
	chunk, r := s.at(id)
	return rowHasKey(chunk, r, s.keyIdx, ek)
}

// gatherTo appends the rows first..first+n-1 and then those of list to
// out as (chunk, row) pairs, a chunk's stretch of the range at a time.
func (s *viewRows) gatherTo(out *Probed, first, n int, list []int) {
	for id, end := first, first+n; id < end; {
		chunk, r := s.at(id)
		k := min(end-id, 1<<chunkShift-r)
		at := len(out.Rows)
		out.Srcs, out.Rows = slices.Grow(out.Srcs, k)[:at+k], slices.Grow(out.Rows, k)[:at+k]
		for j := range k {
			out.Srcs[at+j], out.Rows[at+j] = chunk, r+j
		}
		id += k
	}
	for _, id := range list {
		out.add(s.at(id))
	}
}

// keyIndex is a view's one key index: an open-addressed table, probed
// linearly, of the processed keys. An entry carries the key's hashKey
// and where its rows are, not the key: a probe that meets its hash
// verifies the candidate against the stored row's key columns (or, for
// a key processed with no rows — a frame without detections — against
// the encoding kept in the zero arena), under the equality the encoded
// bytes define. Colliding keys each hold a slot and each is found.
//
// Rows of one key are almost always one consecutive run: a detector's
// rows for a frame are appended together. A key whose rows are not one
// run keeps an explicit list in scattered instead.
type keyIndex struct {
	slots     []keyEntry // power-of-two length; the zero entry is an empty slot
	used      int
	scattered [][]int // row lists of the entries with n < 0
	zero      []byte  // uvarint-length-prefixed encodings of the n == 0 entries, from offset 1
}

// keyEntry locates a key's rows: first..first+n-1 when n > 0,
// scattered[first] when n < 0, none when n == 0 — first is then the
// key's offset in the zero arena, never 0.
type keyEntry struct {
	hash     uint64
	first, n int32
}

// len returns the number of processed keys.
func (x *keyIndex) len() int { return x.used }

// ids returns the row ids of an entry: first..first+n-1, then list.
func (x *keyIndex) ids(e keyEntry) (first, n int, list []int) {
	if e.n < 0 {
		return 0, 0, x.scattered[e.first]
	}
	return int(e.first), int(e.n), nil
}

// firstRow returns the id of the first row of an entry that has rows.
func (x *keyIndex) firstRow(e *keyEntry) int {
	if e.n < 0 {
		return x.scattered[e.first][0]
	}
	return int(e.first)
}

// touch reads the home slot of every selected hash. The loads do not
// depend on one another, so the processor overlaps their cache misses;
// the probes that follow find the slots resident.
func (x *keyIndex) touch(hashes []uint64, sel []int) (sink int32) {
	if len(x.slots) == 0 {
		return 0
	}
	for _, k := range sel {
		sink |= x.slots[int(hashes[k])&(len(x.slots)-1)].n
	}
	return sink
}

// find returns the slot of the key (h, ek) — or the empty slot where it
// would go — and whether it is there.
func (x *keyIndex) find(h uint64, ek []byte, rows *viewRows) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := &x.slots[i]
		switch {
		case *e == keyEntry{}:
			return i, false
		case e.hash != h:
		case e.n != 0 && rows.hasKey(x.firstRow(e), ek),
			e.n == 0 && string(x.zeroKey(e)) == string(ek):
			return i, true
		}
	}
}

// zeroKey returns the encoding of the key of an entry with n == 0.
func (x *keyIndex) zeroKey(e *keyEntry) []byte {
	n, w := binary.Uvarint(x.zero[e.first:])
	return x.zero[int(e.first)+w:][:n]
}

// slot returns the entry of the key (h, ek), inserting an empty one —
// and doubling the table at 3/4 full — when the key is new.
func (x *keyIndex) slot(h uint64, ek []byte, rows *viewRows) (e *keyEntry, found bool) {
	i, found := x.find(h, ek, rows)
	if !found {
		if 4*(x.used+1) > 3*len(x.slots) {
			old := x.slots
			x.slots = make([]keyEntry, max(16, 2*len(old)))
			for _, e := range old {
				if e != (keyEntry{}) {
					j := int(e.hash) & (len(x.slots) - 1)
					for ; x.slots[j] != (keyEntry{}); j = (j + 1) & (len(x.slots) - 1) {
					}
					x.slots[j] = e
				}
			}
			i, _ = x.find(h, ek, rows)
		}
		x.used++
		x.slots[i].hash = h
	}
	return &x.slots[i], found
}

// mark records the key as processed, keeping any rows it has, and
// reports whether it was new.
func (x *keyIndex) mark(h uint64, ek []byte, rows *viewRows) bool {
	e, found := x.slot(h, ek, rows)
	if !found {
		if len(x.zero) == 0 {
			x.zero = append(x.zero, 0)
		}
		e.first = int32(len(x.zero))
		x.zero = append(binary.AppendUvarint(x.zero, uint64(len(ek))), ek...)
	}
	return !found
}

// addRun records rows first..first+n-1 (n > 0), which the caller has
// stored, as further rows of the key.
func (x *keyIndex) addRun(h uint64, ek []byte, rows *viewRows, first, n int) {
	e, _ := x.slot(h, ek, rows)
	switch {
	case e.n == 0:
		e.first, e.n = int32(first), int32(n)
	case e.n > 0 && int(e.first+e.n) == first:
		e.n += int32(n)
	default:
		if e.n > 0 {
			x.scattered = append(x.scattered, idRange(nil, int(e.first), int(e.n)))
			e.first, e.n = int32(len(x.scattered)-1), -1
		}
		x.scattered[e.first] = idRange(x.scattered[e.first], first, n)
	}
}

// idRange appends the ids first..first+n-1 to ids.
func idRange(ids []int, first, n int) []int {
	for i := 0; i < n; i++ {
		ids = append(ids, first+i)
	}
	return ids
}

// KeySet is a set of AppendKey-encoded keys filed under their key hash —
// a key index without rows — for callers that track keys beside a view
// and have the hash at hand: no key is hashed again or kept as a string
// of its own. The zero KeySet is empty.
type KeySet struct{ x keyIndex }

// Add adds the key and reports whether it was new.
func (s *KeySet) Add(h uint64, ek []byte) bool { return s.x.mark(h, ek, nil) }

// Reset empties the set, keeping its storage.
func (s *KeySet) Reset() {
	clear(s.x.slots)
	s.x.used, s.x.zero = 0, s.x.zero[:0]
}
