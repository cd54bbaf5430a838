package server

import (
	"errors"
	"fmt"
	"sync"
)

// ErrMemoryBudget is returned (wrapped) when a query's materialized
// state exceeds its memory budget even after degrading batch size.
var ErrMemoryBudget = errors.New("per-query memory budget exceeded")

// MemBudget tracks one query's estimated materialized bytes: batches
// in flight, sort buffers, and view-append staging. The executor
// charges it at each materialization point; a failed charge first
// triggers degradation (smaller batches, early flushes) and only then
// aborts the query with ErrMemoryBudget. Estimates use the encoded
// size of batches, so decisions are pure functions of the data and
// deterministic across schedules. A nil *MemBudget is unlimited.
type MemBudget struct {
	limit int64

	mu sync.Mutex
	// used is the current estimated resident footprint. guarded by mu.
	used int64
	// peak is the high-water mark of used. guarded by mu.
	peak int64
	// degrades counts degradation events (batch shrinks, forced
	// flushes) taken to stay under the limit. guarded by mu.
	degrades int
}

// NewMemBudget builds a budget of limit estimated bytes. limit <= 0
// returns nil (unlimited).
func NewMemBudget(limit int64) *MemBudget {
	if limit <= 0 {
		return nil
	}
	return &MemBudget{limit: limit}
}

// Charge reserves n estimated bytes, reporting whether the budget
// still holds them. A failed charge reserves nothing; the caller
// degrades (and calls NoteDegrade) or aborts with Exceeded. Nil-safe.
func (b *MemBudget) Charge(n int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.limit {
		return false
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return true
}

// Release returns n estimated bytes to the budget. Nil-safe.
func (b *MemBudget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
}

// NoteDegrade records one degradation step taken to fit the budget.
func (b *MemBudget) NoteDegrade() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.degrades++
}

// Exceeded builds the typed abort error for a charge of n bytes that
// could not fit even after degradation.
func (b *MemBudget) Exceeded(at string, n int64) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Errorf("%w: %s needs %d bytes, %d of %d in use",
		ErrMemoryBudget, at, n, b.used, b.limit)
}

// Peak reports the high-water mark of the estimated footprint. Nil-safe.
// lint:testonly the budget tests read the accounting
func (b *MemBudget) Peak() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Degrades reports how many degradation steps were taken. Nil-safe.
// lint:testonly the budget tests read the accounting
func (b *MemBudget) Degrades() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.degrades
}

// Limit reports the configured budget, 0 when unlimited. Nil-safe.
// lint:testonly the budget tests read the accounting
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}
