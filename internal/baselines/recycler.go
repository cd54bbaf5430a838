// Package baselines implements the reuse baselines of §5.1 that are
// not expressible as optimizer modes alone. The FunCache baseline
// (tuple-level xxHash result caching) lives in the UDF runtime; this
// package provides HashStash's recycler graph.
//
// HashStash keeps one recycler-graph node per operator of previously
// executed plans and materializes operator outputs. To reuse, it
// sub-tree-matches the new query against the graph without requiring
// identical predicates, takes the union of the matched operators'
// materialized results, deduplicates, and re-applies the query's
// predicates. Crucially this is an all-or-nothing mechanism: the union
// must *cover* the query's input range, because HashStash has no
// symbolic difference predicate to compute the missing remainder (its
// predicate analysis is a few hard-coded rules — here, the single
// frame-range rule). When coverage fails, the query runs from scratch
// and its output is materialized for future matches.
package baselines

import (
	"sort"
	"sync"
)

// span is a half-open frame range [Lo, Hi).
type span struct {
	Lo, Hi int64
}

// Recycler is HashStash's recycler graph: operator-subtree keys mapped
// to the frame ranges their materialized outputs cover.
type Recycler struct {
	mu     sync.Mutex
	ranges map[string][]span // guarded by mu
}

// NewRecycler returns an empty recycler graph.
func NewRecycler() *Recycler {
	return &Recycler{ranges: map[string][]span{}}
}

// Covered reports whether the subtree key's materialized outputs cover
// [lo, hi) entirely — the condition under which HashStash can answer
// from the recycler graph.
func (r *Recycler) Covered(key string, lo, hi int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if hi <= lo {
		return true
	}
	return coveredLocked(r.ranges[key], lo, hi)
}

func coveredLocked(spans []span, lo, hi int64) bool {
	pos := lo
	for _, s := range spans { // spans kept sorted and disjoint
		if s.Hi <= pos {
			continue
		}
		if s.Lo > pos {
			return false
		}
		pos = s.Hi
		if pos >= hi {
			return true
		}
	}
	return pos >= hi
}

// Add records that the subtree key's output over [lo, hi) has been
// materialized.
func (r *Recycler) Add(key string, lo, hi int64) {
	if hi <= lo {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := append(r.ranges[key], span{Lo: lo, Hi: hi})
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	merged := spans[:1]
	for _, s := range spans[1:] {
		last := &merged[len(merged)-1]
		if s.Lo <= last.Hi {
			if s.Hi > last.Hi {
				last.Hi = s.Hi
			}
		} else {
			merged = append(merged, s)
		}
	}
	r.ranges[key] = merged
}
