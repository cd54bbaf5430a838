// Disk-pressure survival, stage 1: the storage budget (DESIGN.md §16).
//
// Materialized views are recomputable caches — the symbolic DIFF
// machinery means dropping one is never data loss, only future
// recompute cost — so the storage layer can treat a declared disk
// budget the way the serving layer treats its memory budget:
// degrade before failing. Every durable artifact (view logs and their
// compaction scratch, ingest watermark and checkpoint logs) is charged
// against one per-engine DiskBudget at append, compaction and rename
// time; when an append does not fit, the engine reclaims in
// benefit order (compact fragmented logs, then evict whole cold
// views) and the append retries, surfacing the typed ErrDiskBudget
// only once nothing evictable remains.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDiskBudget is the terminal out-of-space error: the write did not
// fit the configured disk budget even after the eviction ladder ran
// dry. Test with errors.Is. A retriable shortage is never surfaced —
// the engine evicts and retries internally first.
var ErrDiskBudget = errors.New("storage: disk budget exhausted")

// DiskFullError is the retriable out-of-space signal produced by a
// budget denial or an injected disk:full fault at a durable write
// site. Engine.Retry catches it, runs the reclaim ladder, and retries;
// it escapes to callers only wrapped under ErrDiskBudget.
type DiskFullError struct {
	// Site is the durable write site that could not complete.
	Site string
	// Need is the byte count that did not fit.
	Need int64
	// Injected is the fault that simulated the shortage, nil when the
	// shortage came from the configured budget.
	Injected error

	// log is the log that could not grow: the ladder leaves it alone
	// (evicting it frees nothing durable for the retry), and its label
	// prefixes the terminal error.
	log *TailLog
}

// Error implements error.
func (e *DiskFullError) Error() string {
	if e.Injected != nil {
		return fmt.Sprintf("disk full at %s (%d bytes): %v", e.Site, e.Need, e.Injected)
	}
	return fmt.Sprintf("disk full at %s (%d bytes over budget)", e.Site, e.Need)
}

// Unwrap exposes the injected cause.
func (e *DiskFullError) Unwrap() error { return e.Injected }

// DiskStats snapshots a budget's accounting and the eviction ladder's
// lifetime activity.
type DiskStats struct {
	// LimitBytes is the configured budget (0 = unlimited).
	LimitBytes int64
	// UsedBytes is the charged footprint across all durable artifacts.
	UsedBytes int64
	// Artifacts is the number of distinct charged files.
	Artifacts int
	// Denials counts writes rejected for lack of budget (each triggers
	// a reclaim-and-retry, so denials are not failures).
	Denials int64
	// Evictions counts whole views evicted.
	Evictions int64
	// CompactReclaimedBytes and EvictReclaimedBytes split the bytes
	// the reclaim ladder freed by tier.
	CompactReclaimedBytes int64
	EvictReclaimedBytes   int64
}

// DiskBudget charges every durable artifact's bytes against one
// per-engine limit. All methods are nil-safe: a nil budget admits
// everything and records nothing, so unbudgeted engines pay one nil
// check per write.
type DiskBudget struct {
	limit int64

	mu      sync.Mutex
	used    int64            // guarded by mu
	perPath map[string]int64 // guarded by mu; bytes charged per artifact
	stats   DiskStats        // guarded by mu; counters only (sizes derived)
}

// NewDiskBudget builds a budget with the given byte limit (<= 0 means
// account-only: usage is tracked but nothing is ever denied).
func NewDiskBudget(limit int64) *DiskBudget {
	return &DiskBudget{limit: limit, perPath: map[string]int64{}}
}

// Admit reserves delta bytes for the artifact at path, returning
// false (and recording a denial) when the reservation would exceed
// the limit. The reservation is made before the write so concurrent
// writers cannot jointly overshoot; a failed write must Refund.
func (b *DiskBudget) Admit(path string, delta int64) bool {
	if b == nil || delta <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && b.used+delta > b.limit {
		b.stats.Denials++
		return false
	}
	b.used += delta
	b.perPath[path] += delta
	return true
}

// Refund returns a failed write's reservation.
func (b *DiskBudget) Refund(path string, delta int64) {
	if b == nil || delta <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= delta
	if n := b.perPath[path] - delta; n > 0 {
		b.perPath[path] = n
	} else {
		delete(b.perPath, path)
	}
}

// Set forces the artifact's charge to its actual on-disk size —
// the accounting step of compaction, rename commits and fresh-log
// rebirth, where the footprint changes without flowing through Admit.
func (b *DiskBudget) Set(path string, size int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used += size - b.perPath[path]
	if size > 0 {
		b.perPath[path] = size
	} else {
		delete(b.perPath, path)
	}
}

// Drop releases an artifact entirely (file deleted).
func (b *DiskBudget) Drop(path string) { b.Set(path, 0) }

// Headroom returns the bytes still admittable (0 when over, a large
// value when unlimited).
func (b *DiskBudget) Headroom() int64 {
	if b == nil {
		return int64(1) << 62
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit <= 0 {
		return int64(1) << 62
	}
	if b.used >= b.limit {
		return 0
	}
	return b.limit - b.used
}

// noteEvicted records one whole-view eviction freeing n bytes.
func (b *DiskBudget) noteEvicted(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Evictions++
	b.stats.EvictReclaimedBytes += n
}

// noteCompacted records a compaction freeing n bytes.
func (b *DiskBudget) noteCompacted(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.CompactReclaimedBytes += n
}

// Stats snapshots the budget. Zero for a nil budget.
func (b *DiskBudget) Stats() DiskStats {
	if b == nil {
		return DiskStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.LimitBytes = b.limit
	st.UsedBytes = b.used
	st.Artifacts = len(b.perPath)
	return st
}
