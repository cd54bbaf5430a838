// Package costs centralizes the profiled engine cost constants shared
// by the execution engine (which charges them) and the optimizer
// (whose Eq. 3/Eq. 4 cost model must use the same profile).
package costs

import "time"

// Profiled engine cost constants charged to the virtual clock. The
// values reproduce the paper's published measurements (Table 4 and the
// c_r / c_e profile of §4.2); where the paper gives no number, the
// chosen value is documented here and in DESIGN.md.
const (
	// ReadVideoCost is the per-frame cost of loading a decoded frame
	// from the storage engine (Table 4's "Read Video" ≈ 22 s / 10 k
	// frames ≈ 1.8 ms matches the profiled c_r).
	ReadVideoCost = 1800 * time.Microsecond

	// TableViewReadCost is the per-key cost of reading a detector view
	// entry (one frame's detections). Table 4 measures "Read View" at
	// 10 s for a query joining ≈10 k frames of detections, i.e.
	// ≈1 ms/key once the hash table is warm; the pessimistic profiled
	// c_r = 1.8 ms of §4.2 remains the optimizer's planning constant.
	TableViewReadCost = 1000 * time.Microsecond

	// ScalarViewReadCost is the per-key cost of reading one scalar UDF
	// result; scalar rows are an order of magnitude lighter than
	// per-frame detection arrays.
	ScalarViewReadCost = 100 * time.Microsecond

	// ProbeCost is the per-key bookkeeping of the conditional Apply
	// operator (the Fig. 6(b) "Apply" overhead source).
	ProbeCost = 50 * time.Microsecond

	// MatRowCost is the per-row cost of appending fresh UDF results to
	// a materialized view (Fig. 6(b) "Materialization"; the paper notes
	// it is small thanks to 200 MiB batch writes).
	MatRowCost = 200 * time.Microsecond

	// RowCost is the per-row overhead of cheap operators (filters,
	// projections, joins) — Table 4's "Other".
	RowCost = 2 * time.Microsecond

	// OptimizeBaseCost is the fixed simulated cost of one optimizer
	// pass (parse bookkeeping, catalog lookups). The virtual clock
	// must never be charged measured wall time — that would make
	// simulated results machine- and run-dependent — so optimization
	// overhead (Fig. 6(b)) is modeled, not measured.
	OptimizeBaseCost = 100 * time.Microsecond

	// OptimizeAtomCost is the per-atom cost of the symbolic analysis
	// (INTER/DIFF/UNION construction and reduction); the paper reports
	// sub-second optimization for predicates of hundreds of atoms.
	OptimizeAtomCost = 10 * time.Microsecond

	// RetryBackoffBase is the first backoff charged to the virtual
	// clock after a transient UDF failure; subsequent attempts double
	// it up to RetryBackoffMax (capped exponential backoff). The
	// values model a model-serving hiccup: short enough that one
	// retry is cheaper than any detector invocation, long enough to
	// be visible in the Retry category of the time breakdown.
	RetryBackoffBase = 20 * time.Millisecond

	// RetryBackoffMax caps the exponential backoff growth.
	RetryBackoffMax = 160 * time.Millisecond

	// RetryMaxAttempts is the total number of evaluation attempts per
	// invocation (1 initial + RetryMaxAttempts-1 retries).
	RetryMaxAttempts = 4

	// IngestFrameCost is the per-frame cost of durably appending one
	// streaming frame to a live table (decode bookkeeping plus the
	// watermark-log write amortized over the batch). Charged per frame
	// rather than per batch so an interrupted-and-resumed ingestion
	// charges exactly what an uninterrupted one does.
	IngestFrameCost = 50 * time.Microsecond

	// CheckpointWriteCost is the cost of one standing-query checkpoint
	// record write (a small fsync-bounded append).
	CheckpointWriteCost = 500 * time.Microsecond

	// NotifyCost is the per-alert cost of delivering a standing-query
	// notification to its subscriber.
	NotifyCost = 10 * time.Microsecond
)

// RetryBackoff returns the backoff charged before retry attempt
// `attempt` (attempt 2 is the first retry): Base·2^(attempt-2),
// capped at RetryBackoffMax.
func RetryBackoff(attempt int) time.Duration {
	if attempt <= 1 {
		return 0
	}
	d := RetryBackoffBase
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= RetryBackoffMax {
			return RetryBackoffMax
		}
	}
	if d > RetryBackoffMax {
		d = RetryBackoffMax
	}
	return d
}

// AmdahlSpeedup models the wall-clock speedup of the parallel
// pipelined executor at the given worker count: the parallel fraction
// of the workload (UDF evaluation, which the worker pool spreads out)
// divides by workers, the rest stays serial. This is a *wall-clock*
// model only — the virtual clock always charges full undivided costs,
// keeping simulated totals worker-count-invariant (DESIGN.md §10);
// vbench compares this prediction against measured wall time.
func AmdahlSpeedup(parallelFrac float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	if parallelFrac < 0 {
		parallelFrac = 0
	}
	if parallelFrac > 1 {
		parallelFrac = 1
	}
	return 1 / ((1 - parallelFrac) + parallelFrac/float64(workers))
}

// RetryAdjustedCost is the Eq. 3 planning cost of one UDF invocation
// when the model fails transiently with probability p per attempt:
// the expected number of attempts (truncated geometric series over
// RetryMaxAttempts) times the profiled per-attempt cost, plus the
// expected backoff charged between attempts. With p = 0 it returns c
// exactly, so a healthy workload plans identically to a fault-free
// one.
func RetryAdjustedCost(c time.Duration, p float64) time.Duration {
	if p <= 0 {
		return c
	}
	if p > 1 {
		p = 1
	}
	expected := float64(c)
	pk := 1.0
	for attempt := 2; attempt <= RetryMaxAttempts; attempt++ {
		pk *= p // probability that attempt `attempt` is reached
		expected += pk * float64(c+RetryBackoff(attempt))
	}
	return time.Duration(expected)
}
