package types

import (
	"slices"
	"sort"
)

// IDRange is the closed range [Lo, Hi] of integer frame ids.
type IDRange struct {
	Lo, Hi int64
}

// IDSet is a set of frame ids: closed ranges, sorted, disjoint and none
// touching the next, and the number of ids they hold. Its zero value is
// the empty set. A scan adds its ids in ascending batches, so an Add
// most often lands after, extends or falls inside the last range, which
// it handles without a search.
type IDSet struct {
	ranges []IDRange
	n      int
}

// apart reports whether a range starting at lo lies after hi with at
// least one id between them (written so that no sum can overflow).
func apart(hi, lo int64) bool { return lo > hi && lo-hi != 1 }

// Add adds the ids lo..hi; a range with hi < lo adds nothing.
func (s *IDSet) Add(lo, hi int64) {
	if hi < lo {
		return
	}
	k := len(s.ranges)
	if k == 0 || apart(s.ranges[k-1].Hi, lo) {
		s.ranges = append(s.ranges, IDRange{Lo: lo, Hi: hi})
		s.n += int(hi-lo) + 1
		return
	}
	if last := &s.ranges[k-1]; lo >= last.Lo {
		if hi > last.Hi {
			s.n += int(hi - last.Hi)
			last.Hi = hi
		}
		return
	}
	// ranges[i:j] are the ranges lo..hi overlaps or touches.
	i := sort.Search(k, func(i int) bool { return !apart(s.ranges[i].Hi, lo) })
	j := i + sort.Search(k-i, func(j int) bool { return apart(hi, s.ranges[i+j].Lo) })
	r := IDRange{Lo: lo, Hi: hi}
	if i < j {
		r.Lo, r.Hi = min(lo, s.ranges[i].Lo), max(hi, s.ranges[j-1].Hi)
	}
	for _, o := range s.ranges[i:j] {
		s.n -= int(o.Hi-o.Lo) + 1
	}
	s.n += int(r.Hi-r.Lo) + 1
	s.ranges = slices.Replace(s.ranges, i, j, r)
}

// Len returns the number of ids in the set.
func (s *IDSet) Len() int { return s.n }

// Covers reports whether every id of lo..hi is in the set; it holds for
// a range with hi < lo, which has none.
func (s *IDSet) Covers(lo, hi int64) bool {
	if hi < lo {
		return true
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi >= lo })
	return i < len(s.ranges) && s.ranges[i].Lo <= lo && hi <= s.ranges[i].Hi
}

// Ranges returns the set's ranges in ascending order. The slice is the
// set's own: it is valid until the next Add or Reset.
func (s *IDSet) Ranges() []IDRange { return s.ranges }

// Reset empties the set, keeping its storage.
func (s *IDSet) Reset() {
	s.ranges, s.n = s.ranges[:0], 0
}
