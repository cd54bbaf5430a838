// Package server is eva's multi-session serving layer: admission
// control with a bounded queue and virtual-clock wait deadlines,
// per-query memory budgets that degrade before they abort, and the
// tracked goroutine group every server-layer spawn must go through.
//
// The controller is deliberately engine-agnostic: it hands out
// concurrency tokens and accounts queue waits on the same simulated
// clock the engine charges query costs to, so admission behavior is
// deterministic and testable without wall-clock sleeps. A wall-clock
// guard (injectable in tests) backstops the virtual deadline so a
// waiter can never wedge even if no query ever completes.
package server

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrOverloaded is returned by Admit when the concurrency limit is
// reached and the admission queue is full: the query is shed
// immediately rather than queued without bound.
var ErrOverloaded = errors.New("server overloaded: admission queue full")

// ErrQueueTimeout is returned by Admit when a queued query's
// virtual-clock wait deadline expires before a token frees up.
var ErrQueueTimeout = errors.New("server queue wait deadline exceeded")

// wedgeGuard is the wall-clock backstop on a queued Admit. The
// virtual deadline is the real admission policy; this only prevents a
// wedge when no in-flight query ever releases its token.
const wedgeGuard = 30 * time.Second

// waitSamples bounds the queue-wait history Stats takes percentiles
// over to the most recent admissions, so a long-lived server's memory
// and Stats cost stay flat.
const waitSamples = 1024

// Config bounds a Controller. MaxConcurrent is the number of
// concurrency tokens; QueueDepth the maximum number of queries
// waiting for one; QueueTimeout the virtual-clock budget a query may
// spend waiting before it is shed with ErrQueueTimeout.
type Config struct {
	MaxConcurrent int
	QueueDepth    int
	QueueTimeout  time.Duration
}

// waiter is one queued admission request.
type waiter struct {
	grant    chan *Grant // buffered 1; nil send means virtual timeout
	enqueued time.Duration
	deadline time.Duration
}

// Controller is the admission gate shared by every session of one
// System. The zero value is unusable; use NewController. A nil
// *Controller admits everything immediately (unlimited).
type Controller struct {
	cfg Config

	// after injects the wall-clock backstop timer; tests replace it
	// to force or forbid the wedge-guard path deterministically.
	after func(time.Duration) <-chan time.Time

	mu sync.Mutex
	// now is the controller's virtual clock, advanced by each
	// released query's simulated cost. guarded by mu.
	now time.Duration
	// inUse counts outstanding concurrency tokens. guarded by mu.
	inUse int
	// waiters is the FIFO admission queue. guarded by mu.
	waiters []*waiter
	// admitted, shedOverload, shedTimeout count outcomes. guarded by mu.
	admitted     int
	shedOverload int
	shedTimeout  int
	// waits is a ring of the virtual queue waits of the last
	// waitSamples admitted queries; once it is full, next is the slot the
	// next wait overwrites. guarded by mu.
	waits []time.Duration
	next  int // guarded by mu
}

// NewController builds an admission controller. MaxConcurrent < 1 is
// treated as 1; QueueDepth < 0 as 0 (shed immediately when busy).
func NewController(cfg Config) *Controller {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	// The anti-wedge backstop is a real-time guard against a stuck
	// virtual clock; tests replace it via SetWedgeGuard and it never
	// advances a deterministic observable.
	// lint:wallclock anti-wedge backstop timer source
	return &Controller{cfg: cfg, after: time.After}
}

// SetWedgeGuard replaces the wall-clock backstop timer source. Tests
// use it to trigger (or disable) the guard deterministically.
// lint:testonly the controller tests' deterministic timer
func (c *Controller) SetWedgeGuard(after func(time.Duration) <-chan time.Time) {
	c.after = after
}

// Busy reports whether every concurrency token is in use — the
// saturation signal background maintenance (the view scrubber) checks
// so it degrades its cadence instead of competing with admitted
// queries. A nil controller is never busy.
func (c *Controller) Busy() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse >= c.cfg.MaxConcurrent
}

// Grant is one admitted query's concurrency token. Release it exactly
// once with the query's simulated cost; releasing advances the
// controller's virtual clock, expires overdue waiters and hands the
// token to the next queued query.
type Grant struct {
	c    *Controller
	once sync.Once
}

// Admit blocks until a concurrency token is available, the virtual
// queue deadline passes (ErrQueueTimeout), or the queue itself is
// full (ErrOverloaded, immediately). A nil controller admits
// unconditionally and returns a nil Grant (safe to Release).
func (c *Controller) Admit() (*Grant, error) {
	if c == nil {
		return nil, nil
	}
	g, w, err := c.enqueue()
	if g != nil || err != nil {
		return g, err
	}
	select {
	case g := <-w.grant:
		if g == nil {
			return nil, ErrQueueTimeout
		}
		return g, nil
	case <-c.after(wedgeGuard):
		return c.abandon(w)
	}
}

// enqueue takes a free token immediately, sheds on a full queue, or
// appends a waiter for Admit to block on.
func (c *Controller) enqueue() (*Grant, *waiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inUse < c.cfg.MaxConcurrent {
		c.inUse++
		c.admitted++
		c.noteWaitLocked(0)
		return &Grant{c: c}, nil, nil
	}
	if len(c.waiters) >= c.cfg.QueueDepth {
		c.shedOverload++
		return nil, nil, ErrOverloaded
	}
	w := &waiter{
		grant:    make(chan *Grant, 1),
		enqueued: c.now,
		deadline: c.now + c.cfg.QueueTimeout,
	}
	c.waiters = append(c.waiters, w)
	return nil, w, nil
}

// abandon removes w from the queue after the wall-clock guard fired.
// If a grant raced in before the lock was taken, it is used.
func (c *Controller) abandon(w *waiter) (*Grant, error) {
	c.mu.Lock()
	for i, q := range c.waiters {
		if q == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			c.shedTimeout++
			c.mu.Unlock()
			return nil, ErrQueueTimeout
		}
	}
	c.mu.Unlock()
	// Not queued anymore: a grant or timeout was already delivered.
	if g := <-w.grant; g != nil {
		return g, nil
	}
	return nil, ErrQueueTimeout
}

// Release returns the token, charging the completed query's simulated
// cost to the controller clock. Idempotent; safe on a nil Grant.
func (g *Grant) Release(simCost time.Duration) {
	if g == nil {
		return
	}
	g.once.Do(func() { g.c.release(simCost) })
}

func (c *Controller) release(simCost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if simCost > 0 {
		c.now += simCost
	}
	// Expire every waiter whose virtual deadline has passed: they
	// were queued while this query ran and their wait budget is
	// measured on the same clock the query's cost was charged to.
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.deadline <= c.now {
			c.shedTimeout++
			w.grant <- nil
			continue
		}
		kept = append(kept, w)
	}
	c.waiters = kept
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.admitted++
		c.noteWaitLocked(c.now - w.enqueued)
		w.grant <- &Grant{c: c} // token passes directly to the waiter
		return
	}
	c.inUse--
}

// noteWaitLocked records one admitted query's queue wait in the ring.
func (c *Controller) noteWaitLocked(d time.Duration) {
	if len(c.waits) < waitSamples {
		c.waits = append(c.waits, d)
		return
	}
	c.waits[c.next] = d
	c.next = (c.next + 1) % waitSamples
}

// Stats is a point-in-time snapshot of admission outcomes.
type Stats struct {
	Admitted     int
	ShedOverload int
	ShedTimeout  int
	// Queued is the number of queries currently waiting for a token.
	Queued       int
	QueueWaitP50 time.Duration
	QueueWaitP99 time.Duration
}

// Stats snapshots counters and queue-wait percentiles; the percentiles
// are over the last 1 024 admitted queries (waitSamples). Nil-safe.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Admitted:     c.admitted,
		ShedOverload: c.shedOverload,
		ShedTimeout:  c.shedTimeout,
		Queued:       len(c.waiters),
	}
	if len(c.waits) > 0 {
		sorted := append([]time.Duration(nil), c.waits...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.QueueWaitP50 = percentile(sorted, 50)
		s.QueueWaitP99 = percentile(sorted, 99)
	}
	return s
}

// percentile reads the nearest-rank percentile from a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
