package exec

import (
	"errors"
	"fmt"
	"time"

	"eva/internal/faults"
	"eva/internal/types"
)

// ErrDeadlineExceeded marks a query aborted because its virtual-time
// budget ran out (or a fault at faults.SiteDeadline simulated it).
var ErrDeadlineExceeded = errors.New("query deadline exceeded")

// deadlineState is the per-Run cancellation state shared by every
// iterator of one execution.
type deadlineState struct {
	clock    clockReader
	faults   *faults.Injector
	deadline time.Duration // absolute virtual time; 0 = none
}

// clockReader is the slice of simclock.Clock the guard needs.
type clockReader interface {
	Total() time.Duration
}

// check returns the abort error, if any. The order matters for
// determinism: injected expiry (which consumes exactly one injector
// draw per check) wins over the real budget.
func (d *deadlineState) check() error {
	if d == nil {
		return nil
	}
	if ferr := d.faults.Check(faults.SiteDeadline); ferr != nil {
		return fmt.Errorf("exec: %w: %w", ErrDeadlineExceeded, ferr)
	}
	if d.deadline > 0 && d.clock.Total() >= d.deadline {
		return fmt.Errorf("exec: %w (budget %v)", ErrDeadlineExceeded, d.deadline)
	}
	return nil
}

// armDeadline installs the per-Run deadline state, so each Run's
// budget starts from the clock's current total. A Run with neither a
// budget nor an injector has nothing to check and gets none: its
// operators are built unguarded.
func (c *Context) armDeadline() {
	c.dl = nil
	if c.Deadline <= 0 && c.Faults == nil {
		return
	}
	c.dl = &deadlineState{clock: c.Clock, faults: c.Faults}
	if c.Deadline > 0 {
		c.dl.deadline = c.Clock.Total() + c.Deadline
	}
}

// guardIter wraps an iterator so that every next call first checks the
// deadline state. Installed by build around every operator of a Run
// with deadline state, it bounds the virtual time a runaway query can
// consume to one batch beyond its budget — including inside the
// pipeline-breaking operators, whose inputs are themselves guarded.
type guardIter struct {
	dl *deadlineState
	in iterator
}

func (g *guardIter) next() (*types.Batch, error) {
	if err := g.dl.check(); err != nil {
		return nil, err
	}
	return g.in.next()
}
