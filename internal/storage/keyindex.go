package storage

// keyIndex is a view's one key index. An AppendKey-encoded key is
// present iff the key was processed, and its entry names the rows the
// key has in the view's batch — none for a key whose evaluation
// produced no rows (a frame without detections).
//
// Rows of one key are almost always one consecutive run: a detector's
// rows for a frame are appended together. An entry is therefore a
// (first, n) pair, 8 bytes against a slice's 24 in every map slot, and
// the []int a lookup hands out is a window of ids, the identity
// sequence 0, 1, 2, … kept as long as the batch. A key whose rows are
// not one run keeps an explicit list in scattered instead.
//
// Lookups return windows and lists that stay valid and unchanged after
// the view's lock is released: ids and the lists only ever grow past
// the lengths already handed out.
type keyIndex struct {
	entries   map[string]keyRows
	ids       []int   // ids[i] == i
	scattered [][]int // row lists of the entries with n < 0
}

// keyRows locates a key's rows: first..first+n-1 when n >= 0,
// scattered[first] when n < 0.
type keyRows struct{ first, n int32 }

func newKeyIndex() keyIndex { return keyIndex{entries: map[string]keyRows{}} }

// len returns the number of processed keys.
func (x *keyIndex) len() int { return len(x.entries) }

// lookup returns the key's row indexes (read-only) and whether the key
// was processed. The map index converts without allocating.
func (x *keyIndex) lookup(ek []byte) ([]int, bool) {
	e, ok := x.entries[string(ek)]
	if !ok {
		return nil, false
	}
	return x.rows(e), true
}

func (x *keyIndex) rows(e keyRows) []int {
	if e.n < 0 {
		return x.scattered[e.first]
	}
	return x.ids[e.first : e.first+e.n : e.first+e.n]
}

// mark records the key as processed, keeping any rows it has.
func (x *keyIndex) mark(ek []byte) {
	if _, ok := x.entries[string(ek)]; !ok {
		x.entries[string(ek)] = keyRows{}
	}
}

// addRun records rows first..first+n-1 (n > 0), which the caller has
// appended to the batch, as further rows of the key.
func (x *keyIndex) addRun(ek []byte, first, n int) {
	for len(x.ids) < first+n {
		x.ids = append(x.ids, len(x.ids))
	}
	e, ok := x.entries[string(ek)]
	switch {
	case !ok || e.n == 0:
		e = keyRows{first: int32(first), n: int32(n)}
	case e.n > 0 && int(e.first+e.n) == first:
		e.n += int32(n)
	default:
		if e.n > 0 {
			x.scattered = append(x.scattered, append([]int(nil), x.rows(e)...))
			e = keyRows{first: int32(len(x.scattered) - 1), n: -1}
		}
		x.scattered[e.first] = append(x.scattered[e.first], x.ids[first:first+n]...)
	}
	x.entries[string(ek)] = e
}
