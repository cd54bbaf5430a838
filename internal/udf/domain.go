package udf

import (
	"sync"
	"time"

	"eva/internal/faults"
	"eva/internal/simclock"
)

// Domain scopes the session-local half of UDF evaluation: the virtual
// clock costs are charged to, the fault injector consulted before each
// attempt, and the circuit-breaker state with its per-model transient
// failure-rate observations. The Runtime keeps everything genuinely
// global — the catalog, the FunCache contents and singleflight claims,
// registered implementations, and the demand/reuse/eval counters
// (pure sums, so concurrent sessions cannot perturb their totals).
//
// Every concurrent session gets its own Domain so that breaker trips,
// half-open probes, and retry-adjusted planning costs in one session
// are pure functions of that session's own history — the property the
// multi-session chaos matrix byte-checks against solo runs. The
// system's root session evaluates through the Runtime's default domain.
//
// Lock ordering: a Domain method never holds d.mu while taking the
// Runtime's mu — shared policy values are fetched from the Runtime
// before d.mu is acquired.
type Domain struct {
	r     *Runtime
	clock *simclock.Clock

	mu       sync.Mutex
	inj      *faults.Injector    // guarded by mu
	breakers map[string]*breaker // guarded by mu
	// attempts and transient are this domain's observed invocation
	// attempts and transient-failure counts per model; they feed
	// FailureRate so planning costs reflect only this session's
	// history. guarded by mu.
	attempts  map[string]int // guarded by mu
	transient map[string]int // guarded by mu
}

// NewDomain builds a session-scoped evaluation domain charging the
// given clock, with fresh breaker state and no injector.
func (r *Runtime) NewDomain(clock *simclock.Clock) *Domain {
	return &Domain{
		r:         r,
		clock:     clock,
		breakers:  map[string]*breaker{},
		attempts:  map[string]int{},
		transient: map[string]int{},
	}
}

// DefaultDomain returns the runtime's built-in domain — the root
// session's, and the one Runtime.EvalDetector/EvalScalar evaluate
// through.
func (r *Runtime) DefaultDomain() *Domain { return r.def }

// Runtime returns the shared runtime this domain evaluates through.
func (d *Domain) Runtime() *Runtime { return d.r }

// SetInjector installs the fault injector consulted before every model
// attempt in this domain (nil disables injection).
func (d *Domain) SetInjector(inj *faults.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = inj
}

func (d *Domain) injector() *faults.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inj
}

// reset clears the domain's breakers and failure observations.
func (d *Domain) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.breakers = map[string]*breaker{}
	d.attempts = map[string]int{}
	d.transient = map[string]int{}
}

// cooldown and threshold fetch the shared breaker policy from the
// Runtime (never called with d.mu held; see the lock-ordering note).
func (r *Runtime) cooldown() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cooldownLocked()
}

func (r *Runtime) threshold() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.thresholdLocked()
}
