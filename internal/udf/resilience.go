package udf

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/types"
	"eva/internal/xxhash"
)

// ErrModelUnavailable marks an evaluation rejected because the
// physical model's circuit breaker is open. The core engine treats it
// as a replanning signal: the optimizer re-runs Algorithm 2's set
// cover over the remaining healthy models implementing the logical
// task, so the query degrades to a fallback model instead of failing.
var ErrModelUnavailable = errors.New("model unavailable (circuit breaker open)")

// ErrEvalFailed marks a UDF invocation that failed even after the
// retry budget. The failure was charged to the model's circuit
// breaker, so the engine may re-run the query: either the model
// recovers, or its breaker opens and the optimizer degrades to a
// fallback.
var ErrEvalFailed = errors.New("udf evaluation failed")

// Breaker defaults. A model trips after BreakerThreshold consecutive
// failed invocations and stays open for BreakerCooldown of *virtual*
// time; after that a probe invocation is allowed through (half-open)
// and either closes the breaker or re-arms the cooldown.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
)

// breaker is the per-physical-model circuit-breaker state.
type breaker struct {
	consecutive int           // consecutive failed invocations
	open        bool          // rejecting evaluations
	openedAt    time.Duration // virtual clock total at trip time
}

// SetInjector installs the fault injector on the default domain (nil
// disables injection). Session domains carry their own injectors.
func (r *Runtime) SetInjector(inj *faults.Injector) {
	r.def.SetInjector(inj)
}

// SetRetryPolicy overrides the retry/breaker parameters; zero values
// keep the defaults (costs.RetryMaxAttempts attempts,
// DefaultBreakerThreshold trips, DefaultBreakerCooldown). The policy
// is shared by every domain.
func (r *Runtime) SetRetryPolicy(maxAttempts, breakerThreshold int, cooldown time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retryMax = maxAttempts
	r.breakThreshold = breakerThreshold
	r.breakCooldown = cooldown
}

func (r *Runtime) maxAttempts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retryMax > 0 {
		return r.retryMax
	}
	return costs.RetryMaxAttempts
}

// breakerAllow rejects the invocation while the model's breaker is
// open and its virtual-time cooldown has not elapsed. After the
// cooldown one probe invocation is let through (half-open).
func (d *Domain) breakerAllow(u *catalog.UDF) error {
	key := u.Key()
	cd := d.r.cooldown()
	now := d.clock.Total()
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.breakers[key]
	if b == nil || !b.open {
		return nil
	}
	if now-b.openedAt >= cd {
		return nil // half-open probe
	}
	return fmt.Errorf("udf: %s: %w", u.Name, ErrModelUnavailable)
}

// HealthSnapshot is a frozen view of a domain's circuit breakers,
// taken at a serial point (the executor captures one per batch before
// fanning out) so that every concurrently evaluated invocation sees
// the same admission decisions the serial engine would. Without it,
// the live breakerAllow reads the advancing virtual clock and an open
// breaker could flip to half-open mid-batch at a worker-dependent row.
type HealthSnapshot struct {
	now      time.Duration
	cooldown time.Duration
	open     map[string]time.Duration // open breakers → openedAt
}

// HealthSnapshot captures the domain's breaker states and virtual time.
func (d *Domain) HealthSnapshot() *HealthSnapshot {
	cd := d.r.cooldown()
	now := d.clock.Total()
	d.mu.Lock()
	defer d.mu.Unlock()
	hs := &HealthSnapshot{now: now, cooldown: cd}
	for name, b := range d.breakers {
		if b.open {
			if hs.open == nil {
				hs.open = map[string]time.Duration{}
			}
			hs.open[name] = b.openedAt
		}
	}
	return hs
}

// allow is breakerAllow against the frozen snapshot. Breaker decisions
// become batch-granular under snapshots: every row of a batch sees the
// state at the batch's start, at any worker count.
func (h *HealthSnapshot) allow(u *catalog.UDF) error {
	openedAt, open := h.open[u.Key()]
	if !open || h.now-openedAt >= h.cooldown {
		return nil // closed, or half-open probe
	}
	return fmt.Errorf("udf: %s: %w", u.Name, ErrModelUnavailable)
}

// OutcomeSink defers the breaker bookkeeping of invocation outcomes so
// the executor can commit them in serial row order during its assemble
// phase. Each sink belongs to one worker's chunk of consecutive rows
// (one goroutine), which records in row order; only CommitOutcomes
// touches shared state.
type OutcomeSink struct {
	outcomes []sunkOutcome
}

type sunkOutcome struct {
	key string // catalog.UDF.Key of the model
	ok  bool
}

func (s *OutcomeSink) record(key string, ok bool) {
	s.outcomes = append(s.outcomes, sunkOutcome{key: key, ok: ok})
}

// Reset clears the sink for reuse, keeping its capacity — executors
// recycle their sinks across batches to stay off the heap.
func (s *OutcomeSink) Reset() {
	s.outcomes = s.outcomes[:0]
}

// CommitOutcomes applies a sink's deferred invocation outcomes to the
// domain's circuit breakers. The executor calls it chunk by chunk in
// input-row order, so consecutive-failure counts — and therefore
// breaker trips, degradation triggers and replans — fire at the same
// row at every worker count. Nil sinks and empty sinks are no-ops.
func (d *Domain) CommitOutcomes(sink *OutcomeSink) {
	if sink == nil || len(sink.outcomes) == 0 {
		return
	}
	// One policy fetch, one clock read and one lock for the whole sink:
	// commits happen at the executor's serial point, where the clock
	// stands still.
	threshold := d.r.threshold()
	now := d.clock.Total()
	d.mu.Lock()
	for _, o := range sink.outcomes {
		d.noteOutcomeLocked(o.key, o.ok, threshold, now)
	}
	d.mu.Unlock()
	// Keep the capacity: committed sinks are recycled by the executor.
	sink.outcomes = sink.outcomes[:0]
}

func (r *Runtime) cooldownLocked() time.Duration {
	if r.breakCooldown > 0 {
		return r.breakCooldown
	}
	return DefaultBreakerCooldown
}

func (r *Runtime) thresholdLocked() int {
	if r.breakThreshold > 0 {
		return r.breakThreshold
	}
	return DefaultBreakerThreshold
}

// noteOutcome records an invocation-level success or failure for the
// domain's breaker of the model with this catalog.UDF.Key: consecutive
// failures trip it, any success closes it.
func (d *Domain) noteOutcome(key string, ok bool) {
	threshold := d.r.threshold()
	now := d.clock.Total()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteOutcomeLocked(key, ok, threshold, now)
}

// noteOutcomeLocked is noteOutcome with d.mu held and the shared
// policy and the virtual time already fetched.
func (d *Domain) noteOutcomeLocked(key string, ok bool, threshold int, now time.Duration) {
	b := d.breakers[key]
	if b == nil {
		b = &breaker{}
		d.breakers[key] = b
	}
	if ok {
		b.consecutive = 0
		b.open = false
		return
	}
	b.consecutive++
	if b.consecutive >= threshold {
		b.open = true
		b.openedAt = now
	}
}

// ModelHealthy reports whether the model accepts evaluations in this
// domain: its breaker is closed, or open but past the cooldown (probe
// allowed). It implements the optimizer's health view for Algorithm
// 2's degraded re-cover.
func (d *Domain) ModelHealthy(name string) bool {
	cd := d.r.cooldown()
	now := d.clock.Total()
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.breakers[strings.ToLower(name)]
	if b == nil || !b.open {
		return true
	}
	return now-b.openedAt >= cd
}

// FailureRate returns the domain's observed per-attempt *transient*
// failure probability of the model (transient failures over total
// attempts); the optimizer feeds it to costs.RetryAdjustedCost so
// expected retries show up in the Eq. 3 accounting. Permanent
// failures are deliberately excluded: they route through the circuit
// breaker (trip, cooldown, probe) rather than inflating the model's
// planning cost — otherwise a single hard failure would poison the
// cost model with no recovery path. A model with no observed attempts
// reports 0.
func (d *Domain) FailureRate(name string) float64 {
	key := strings.ToLower(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.attempts[key] == 0 {
		return 0
	}
	return float64(d.transient[key]) / float64(d.attempts[key])
}

func (r *Runtime) countFailed(key string, isTransient bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed[key]++
	if isTransient {
		r.transient[key]++
	}
}

func (r *Runtime) countRetry(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retried[key]++
}

// EvalIdentity derives a call identity for fault injection from the
// invocation's arguments — the fallback used by expression-level
// scalar calls and direct Runtime callers, which have no
// executor-assigned invocation index. Identical
// arguments yield the same identity, so a FunCache claimant draws the
// same schedule no matter which row claims the key.
func EvalIdentity(udfName string, args []types.Datum) uint64 {
	return xxhash.Sum64(rawArgs(udfName, args), 0)
}
