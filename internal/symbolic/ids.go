package symbolic

import (
	"math"

	"eva/internal/types"
)

// noID is a tail no id reaches: every conjunct bounds id above.
const noID = math.MaxInt64

// IDRanges converts d's constraint on the column id into the integer
// frame ids it admits, the one place an open, closed or fractional
// bound is rounded to a frame. Frame ids start at 0, so an interval
// reaching below 0 starts there. ranges are the ranges of the
// types.IDSet of the ids of every interval bounded above. tail is the
// least id of what is not bounded above — an interval with no upper
// end, or a conjunct that leaves id free (no numeric id term) — from
// which on every id is admitted, and math.MaxInt64 when every conjunct
// bounds id above. d admits exactly
// the ids in ranges and those from tail on.
func (d DNF) IDRanges() (ranges []types.IDRange, tail int64) {
	var ids types.IDSet
	tail = noID
	for _, c := range d.conjs {
		con, ok := c.Constraint("id")
		if !ok || !con.Numeric {
			tail = 0 // this conjunct admits every id
			continue
		}
		for _, iv := range con.Ivs.Intervals() {
			if iv.Lo >= float64(noID) {
				continue
			}
			lo := int64(0)
			if f := math.Ceil(iv.Lo); f >= 0 {
				lo = int64(f)
				if iv.LoOpen && f == iv.Lo {
					lo++ // id > 100 starts at 101
				}
			}
			if iv.Hi >= float64(noID) {
				tail = min(tail, lo)
				continue
			}
			f := math.Floor(iv.Hi)
			if f < float64(lo) {
				continue
			}
			hi := int64(f)
			if iv.HiOpen && f == iv.Hi {
				hi-- // id < 160 ends at 159
			}
			ids.Add(lo, hi)
		}
	}
	return ids.Ranges(), tail
}

// IDHull is the hull of the frame ids d admits, cut to a table of
// frames frames: the half-open range [lo, hi) a scan reads. It is empty
// — hi == lo — when no id d admits is a frame.
func (d DNF) IDHull(frames int64) (lo, hi int64) {
	ranges, tail := d.IDRanges()
	if len(ranges) == 0 && tail == noID {
		return 0, 0
	}
	lo, hi = tail, frames
	if len(ranges) > 0 {
		lo = min(lo, ranges[0].Lo)
		if tail == noID {
			hi = min(hi, ranges[len(ranges)-1].Hi+1)
		}
	}
	return lo, max(hi, lo)
}

// FromIDRanges is the inverse of IDRanges for a predicate bounded
// above: the predicate on id that admits exactly the ids of the closed
// ranges (FALSE for none).
func FromIDRanges(ranges []types.IDRange) DNF {
	if len(ranges) == 0 {
		return False()
	}
	ivs := make([]Interval, len(ranges))
	for i, r := range ranges {
		ivs[i] = Interval{Lo: float64(r.Lo), Hi: float64(r.Hi)}
	}
	return FromConjuncts(NewConjunct().WithConstraint("id", NumConstraint(NewIntervalSet(ivs...))))
}
