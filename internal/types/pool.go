package types

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchPool recycles Batches through per-schema-width sync.Pool
// classes so steady-state batch traffic on the execution hot path
// allocates nothing (DESIGN.md §13). Two batches with different
// schemas but equal width share a class: a recycled batch's column
// slices are reused after Get rebinds the schema.
//
// Ownership is linear: exactly one owner may hold a pooled batch at a
// time, and only the owner may Put it. Putting a batch twice, putting
// a batch from another pool, or putting a batch that never came from a
// pool panics with a *PoolError — these are programming errors in the
// operator lifecycle, not runtime conditions to recover from.
//
// Use-after-Put is invisible in release builds (the stale reader sees
// whatever rows the next owner wrote). The poison mode — default under
// `-tags evadebug`, or enabled per pool by SetPoison — scribbles every
// datum slot with an invalid-kind sentinel on Put, so a stale typed
// accessor panics immediately instead of silently reading recycled
// data.
type BatchPool struct {
	mu      sync.Mutex
	classes map[int]*sync.Pool // guarded by mu; schema width → batch class

	poison atomic.Bool

	hits   atomic.Int64 // Gets served by a recycled batch
	misses atomic.Int64 // Gets that allocated a fresh batch
	puts   atomic.Int64 // batches returned to the pool
}

// PoolError is the typed panic value raised on batch-pool misuse
// (double Put, foreign Put, Put of a never-pooled batch).
type PoolError struct {
	Op     string // the misused operation ("Put")
	Reason string // what went wrong
}

// Error implements error.
func (e *PoolError) Error() string {
	return fmt.Sprintf("types: BatchPool.%s: %s", e.Op, e.Reason)
}

// poisonDatum is the sentinel scribbled over recycled slots: its kind
// is outside the Kind enum, so every typed accessor's mustBe check
// panics on a use-after-Put read.
var poisonDatum = Datum{kind: Kind(0x7F)}

// NewBatchPool returns an empty pool. Poison mode starts enabled when
// built with `-tags evadebug`.
func NewBatchPool() *BatchPool {
	p := &BatchPool{classes: map[int]*sync.Pool{}}
	p.poison.Store(poisonDefault)
	return p
}

// SetPoison toggles use-after-Put poisoning at runtime.
// lint:testonly the pool-safety tests poison one pool without the build tag
func (p *BatchPool) SetPoison(on bool) { p.poison.Store(on) }

// class returns the sync.Pool for one schema width.
func (p *BatchPool) class(width int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.classes[width]
	if !ok {
		c = &sync.Pool{}
		p.classes[width] = c
	}
	return c
}

// Get returns an empty batch for the schema, recycling a previously
// Put batch of the same width when one is available (its column
// capacity carries over — the zero-allocation steady state) and
// allocating a fresh one otherwise.
func (p *BatchPool) Get(schema Schema) *Batch {
	c := p.class(len(schema))
	if v := c.Get(); v != nil {
		b := v.(*Batch)
		b.schema = schema
		for i := range b.cols {
			b.cols[i] = b.cols[i][:0]
		}
		b.n = 0
		b.free = false
		p.hits.Add(1)
		return b
	}
	p.misses.Add(1)
	b := NewBatch(schema)
	b.pool = p
	return b
}

// Put returns a batch to the pool. The caller must be the batch's sole
// owner and must not touch it afterwards. Panics with *PoolError when
// the batch is nil, was never obtained from a pool, belongs to a
// different pool, or was already Put (double-Put).
func (p *BatchPool) Put(b *Batch) {
	switch {
	case b == nil:
		panic(&PoolError{Op: "Put", Reason: "nil batch"})
	case b.pool == nil:
		panic(&PoolError{Op: "Put", Reason: "batch was not obtained from a pool"})
	case b.pool != p:
		panic(&PoolError{Op: "Put", Reason: "batch belongs to a different pool"})
	case b.free:
		panic(&PoolError{Op: "Put", Reason: "double Put of the same batch"})
	}
	if p.poison.Load() {
		for c := range b.cols {
			col := b.cols[c]
			for i := range col {
				col[i] = poisonDatum
			}
		}
	}
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
	b.n = 0
	b.schema = nil
	b.free = true
	p.puts.Add(1)
	p.class(len(b.cols)).Put(b)
}

// PoolStats is a snapshot of pool traffic. In steady state Hits ≈ Puts
// and Misses stays flat: every batch the pipeline needs comes back
// from a previous batch's Put.
type PoolStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// Stats snapshots the pool counters.
func (p *BatchPool) Stats() PoolStats {
	return PoolStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
	}
}
