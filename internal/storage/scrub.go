package storage

import (
	"sort"
	"time"
)

// VerifyViews runs one full scrub pass: every open view is re-read
// from disk and every record re-hashed (Verify), in sorted name order
// for determinism. Per-view errors (injected scrub faults, I/O
// failures) are collected per result rather than aborting the pass —
// one sick view must not shield the others from verification.
func (e *Engine) VerifyViews() []ScrubResult {
	e.mu.Lock()
	views := make([]*View, 0, len(e.views))
	for _, v := range e.views {
		views = append(views, v)
	}
	e.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	out := make([]ScrubResult, 0, len(views))
	for _, v := range views {
		res, err := v.Verify()
		if err != nil {
			res.Name = v.name
			res.Err = err.Error()
		}
		out = append(out, res)
	}
	return out
}

// ScrubStats counts a maintenance cadence's lifetime due checks.
type ScrubStats struct {
	// Passes is the number of due checks that ran a pass.
	Passes int
	// Degraded counts due passes deferred because the system was busy.
	Degraded int
}

// maxDegradeFactor bounds how far a busy system can stretch a
// cadence: at most 8× the base interval, so maintenance degrades under
// load but is never starved forever.
const maxDegradeFactor = 8

// Cadence decides when a periodic maintenance pass (the view scrub,
// the high-water eviction) is due on the virtual clock. It is a pure
// value: the owner asks Due at each statement boundary and runs the
// pass itself, so how many passes run is a function of the statement
// sequence alone. A cadence with a non-positive interval is never due.
type Cadence struct {
	base, cur, next time.Duration
	ScrubStats
}

// NewCadence returns a cadence of the given base interval whose first
// deadline is anchored at now.
func NewCadence(interval, now time.Duration) Cadence {
	return Cadence{base: interval, cur: interval, next: now + interval}
}

// Due reports whether a pass should run now. Before the deadline a
// check is free. A due check while busy degrades before it sheds: the
// interval doubles (up to 8× base) and the pass is deferred, never
// dropped. Otherwise the interval resets to base and the pass is due.
func (c *Cadence) Due(now time.Duration, busy bool) bool {
	if c.base <= 0 || now < c.next {
		return false
	}
	if busy {
		if c.cur < maxDegradeFactor*c.base {
			c.cur *= 2
		}
		c.next = now + c.cur
		c.Degraded++
		return false
	}
	c.cur = c.base
	c.next = now + c.cur
	c.Passes++
	return true
}
