// Package symbolic implements EVA's symbolic predicate engine (§4.1 of
// the paper): a small computer-algebra system over typed atomic
// predicates (numeric intervals and categorical sets), disjunctive
// normal form, the INTER/DIFF/UNION derived predicates, and the
// predicate-reduction procedure of Algorithm 1.
//
// It substitutes for the SymPy engine used by the paper's Python
// implementation; the subset of symbolic computing EVA relies on —
// inequality solving over one dimension at a time plus boolean
// structure — is implemented natively and exactly.
package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is a (possibly unbounded, possibly degenerate) interval over
// the reals. Lo/Hi may be ±Inf; LoOpen/HiOpen select open endpoints.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// FullInterval covers the entire real line.
var FullInterval = Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen) {
		return true
	}
	return false
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (v == iv.Lo && iv.LoOpen) {
		return false
	}
	if v > iv.Hi || (v == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// intersect returns the intersection of two intervals.
func (iv Interval) intersect(o Interval) Interval {
	out := iv
	if o.Lo > out.Lo || (o.Lo == out.Lo && o.LoOpen) {
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi < out.Hi || (o.Hi == out.Hi && o.HiOpen) {
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	}
	return out
}

// overlapsOrTouches reports whether the union of the two intervals is a
// single interval (they intersect or are adjacent with a covered seam).
func (iv Interval) overlapsOrTouches(o Interval) bool {
	if iv.Empty() || o.Empty() {
		return false
	}
	a, b := iv, o
	if b.Lo < a.Lo || (b.Lo == a.Lo && !b.LoOpen && a.LoOpen) {
		a, b = b, a
	}
	// a starts first; union is contiguous unless there is a gap before b.
	if b.Lo < a.Hi {
		return true
	}
	if b.Lo == a.Hi {
		// Adjacent: seam covered unless both endpoints open.
		return !(a.HiOpen && b.LoOpen)
	}
	return false
}

// hull returns the smallest interval covering both (valid only when
// overlapsOrTouches).
func (iv Interval) hull(o Interval) Interval {
	out := iv
	if o.Lo < out.Lo || (o.Lo == out.Lo && !o.LoOpen) {
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi > out.Hi || (o.Hi == out.Hi && !o.HiOpen) {
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	}
	return out
}

// String renders the interval in mathematical notation.
func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%g, %g%s", lb, iv.Lo, iv.Hi, rb)
}

// IntervalSet is a normalized union of disjoint, non-adjacent, non-empty
// intervals in ascending order. The zero value is the empty set.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a normalized set from arbitrary intervals.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	keep := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			keep = append(keep, iv)
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		a, b := keep[i], keep[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return !a.LoOpen && b.LoOpen
	})
	var out []Interval
	for _, iv := range keep {
		if n := len(out); n > 0 && out[n-1].overlapsOrTouches(iv) {
			out[n-1] = out[n-1].hull(iv)
		} else {
			out = append(out, iv)
		}
	}
	return IntervalSet{ivs: out}
}

// FullIntervalSet covers all reals.
func FullIntervalSet() IntervalSet { return IntervalSet{ivs: []Interval{FullInterval}} }

// Empty reports whether the set contains no points.
func (s IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Full reports whether the set covers all reals.
func (s IntervalSet) Full() bool {
	return len(s.ivs) == 1 && math.IsInf(s.ivs[0].Lo, -1) && math.IsInf(s.ivs[0].Hi, 1)
}

// Intervals returns the normalized component intervals (read-only).
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// Contains reports whether v lies in the set.
func (s IntervalSet) Contains(v float64) bool {
	for _, iv := range s.ivs {
		if iv.Contains(v) {
			return true
		}
	}
	return false
}

// Union returns the union of two sets.
func (s IntervalSet) Union(o IntervalSet) IntervalSet {
	all := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	all = append(all, s.ivs...)
	all = append(all, o.ivs...)
	return NewIntervalSet(all...)
}

// Intersect returns the intersection of two sets. One walk of the two
// ascending lists, advancing past whichever interval ends first (on a
// tied end either: what follows it on each side starts past the tie),
// meets every overlapping pair in order; the pieces come out disjoint
// and non-adjacent (a point missing from either set separates any two),
// so they are already normalized.
func (s IntervalSet) Intersect(o IntervalSet) IntervalSet {
	var out []Interval
	for i, j := 0, 0; i < len(s.ivs) && j < len(o.ivs); {
		a, b := s.ivs[i], o.ivs[j]
		if c := a.intersect(b); !c.Empty() {
			out = append(out, c)
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return IntervalSet{ivs: out}
}

// Complement returns the complement of the set over the reals: the
// gaps before, between and after its intervals, which come out
// ascending and separated by them, so already normalized.
func (s IntervalSet) Complement() IntervalSet {
	var out []Interval
	lo, loOpen := math.Inf(-1), true
	for _, iv := range s.ivs {
		gap := Interval{Lo: lo, LoOpen: loOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen}
		if !gap.Empty() {
			out = append(out, gap)
		}
		lo, loOpen = iv.Hi, !iv.HiOpen
	}
	last := Interval{Lo: lo, LoOpen: loOpen, Hi: math.Inf(1), HiOpen: true}
	if !last.Empty() {
		out = append(out, last)
	}
	return IntervalSet{ivs: out}
}

// Minus returns s \ o.
func (s IntervalSet) Minus(o IntervalSet) IntervalSet {
	return s.Intersect(o.Complement())
}

// SubsetOf reports whether every point of s lies in o.
func (s IntervalSet) SubsetOf(o IntervalSet) bool {
	return s.Minus(o).Empty()
}

// Equal reports set equality.
func (s IntervalSet) Equal(o IntervalSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// AtomCount counts the atomic comparison formulas needed to express the
// set: one per finite endpoint, except a degenerate point interval
// (equality) counts once. Fig. 7 plots this quantity.
func (s IntervalSet) AtomCount() int {
	n := 0
	for _, iv := range s.ivs {
		if iv.Lo == iv.Hi {
			n++ // equality atom
			continue
		}
		if !math.IsInf(iv.Lo, -1) {
			n++
		}
		if !math.IsInf(iv.Hi, 1) {
			n++
		}
	}
	return n
}

// String renders the set as a union of intervals.
func (s IntervalSet) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
