// Package core wires together the semantic reuse pipeline of §3.1 —
// the paper's primary contribution. One Engine owns the four-step
// lifecycle of every query:
//
//	parse tree ─▶ ① identify candidate UDFs
//	           ─▶ ② compute signatures, fetch aggregated predicates
//	           ─▶ ③ materialization-aware optimizations (Eq. 4 ranking,
//	                Algorithm 2 set cover)
//	           ─▶ ④ rule-based transformation (Fig. 3 / Fig. 4)
//	           ─▶ execution with view reads, guarded evaluation, stores
//	           ─▶ ⑤ the plan's claims on aggregated predicates settled:
//	                committed — durably, in the view logs — where the
//	                stores completed, withdrawn where they did not
//
// Steps ①–④ live in internal/optimizer and internal/udf; execution in
// internal/exec. The Engine composes them over shared state (catalog,
// UDFManager, storage, virtual clock) and is what the public eva
// package drives. New also makes the view logs the UDFManager's
// PredicateStore, so an engine opened over a populated directory plans
// against what the previous process materialized (DESIGN.md §19).
package core

import (
	"errors"
	"time"

	"eva/internal/catalog"
	"eva/internal/exec"
	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
)

// maxReplans bounds the replan-on-failure loop. Re-running a query
// whose eval model failed feeds that model's circuit breaker (one
// failure per run), so the bound must cover at least
// udf.DefaultBreakerThreshold failing runs plus the degraded run that
// follows the trip.
const maxReplans = udf.DefaultBreakerThreshold

// Engine is one instance of the semantic reuse pipeline.
type Engine struct {
	Catalog *catalog.Catalog
	Manager *udf.Manager
	Runtime *udf.Runtime
	Store   *storage.Engine
	Clock   *simclock.Clock
	Opt     *optimizer.Optimizer
	// Deadline is the virtual-time budget applied to each query
	// execution (0 = unlimited).
	Deadline time.Duration
	// Workers is the parallel pipelined executor's worker count
	// (0 or 1 = serial); see exec.Context.Workers.
	Workers int
	// Pool recycles columnar batches across queries (nil = every
	// operator allocates fresh batches); see exec.Context.Pool and
	// DESIGN.md §13.
	Pool *types.BatchPool

	batchSize int
	faults    *faults.Injector
}

// New assembles an engine over a storage root.
func New(store *storage.Engine, batchSize int) *Engine {
	cat := catalog.New()
	clock := &simclock.Clock{}
	mgr := udf.NewManager(viewPredicates{store})
	rt := udf.NewRuntime(cat, clock)
	opt := optimizer.New(cat, mgr, clock)
	// The root session's breaker state and observed failure rates drive
	// the optimizer's graceful degradation (health-filtered Algorithm 2).
	opt.Health = rt.DefaultDomain()
	return &Engine{
		Catalog:   cat,
		Manager:   mgr,
		Runtime:   rt,
		Store:     store,
		Clock:     clock,
		Opt:       opt,
		batchSize: batchSize,
	}
}

// SetFaults installs one deterministic fault injector across every
// fault site — UDF evaluation, view writes, and the executor's
// deadline checks (nil disables injection).
func (e *Engine) SetFaults(inj *faults.Injector) {
	e.faults = inj
	e.Runtime.SetInjector(inj)
	e.Store.SetInjector(inj)
}

// Outcome is the result of running one SELECT through the pipeline.
type Outcome struct {
	Rows   *types.Batch
	Plan   plan.Node
	Report optimizer.Report
	// Trace holds per-operator statistics when requested.
	Trace *exec.Trace
}

// ExecOpts is the session a statement runs in: the virtual clock its
// costs are charged to, the UDF domain it evaluates and plans through
// (breaker state, failure rates, UDF fault schedule), the injector its
// view appends and deadline checks draw from (nil injects nothing) and
// its query memory budget (nil = unlimited). A nil Clock or Domain
// names the engine's own — the root session's. Sessions switches on
// the executor's shared-view protocol (store-view probing, per-key
// claims, per-batch publication) so concurrent sessions reuse one
// another's results instead of recomputing them; the root session runs
// without it and keeps its pipeline stages. Trace collects per-operator
// statistics into Outcome.Trace.
type ExecOpts struct {
	Clock    *simclock.Clock
	Domain   *udf.Domain
	Faults   *faults.Injector
	Budget   *server.MemBudget
	Sessions bool
	Trace    bool
}

// Execute runs a SELECT through the full pipeline under the mode, in
// the session opts describes. With mode.DryRun it stops after the
// optimization phase: the Outcome carries the plan and report only.
func (e *Engine) Execute(stmt *parser.SelectStmt, mode optimizer.Mode, opts ExecOpts) (*Outcome, error) {
	if opts.Clock == nil {
		opts.Clock = e.Clock
	}
	if opts.Domain == nil {
		opts.Domain = e.Runtime.DefaultDomain()
	}
	// The optimizer is a small value over shared catalog/manager state;
	// a client session gets a shallow clone charging its clock and
	// consulting its breaker health.
	opt := e.Opt
	if opts.Clock != e.Clock || opts.Domain != e.Runtime.DefaultDomain() {
		c := *e.Opt
		c.Clock, c.Health = opts.Clock, opts.Domain
		opt = &c
	}
	// Replan-on-breaker loop: when a model's circuit breaker trips
	// mid-execution, the plan's eval target is now known-unhealthy, so
	// re-optimizing lets the health filter re-run Algorithm 2 over the
	// remaining models implementing the logical task (graceful
	// degradation) instead of failing the query.
	for attempt := 0; ; attempt++ {
		// The plan's claims on aggregated predicates last one attempt
		// and are settled when it ends (see settle below).
		var claims *udf.Claims
		if !mode.DryRun {
			claims = e.Manager.Begin()
		}
		optRes, err := opt.Optimize(stmt, mode, claims)
		if err != nil {
			claims.Abort()
			return nil, err
		}
		out := &Outcome{Plan: optRes.Plan, Report: optRes.Report}
		if mode.DryRun {
			return out, nil
		}
		ctx := &exec.Context{
			Store: e.Store, Runtime: e.Runtime, Clock: opts.Clock,
			BatchSize: e.batchSize, Faults: opts.Faults, Deadline: e.Deadline,
			Workers: e.Workers, Pool: e.Pool,
			Domain: opts.Domain, Budget: opts.Budget, Sessions: opts.Sessions,
		}
		if opts.Trace {
			out.Trace = exec.NewTrace()
			ctx.Trace = out.Trace
		}
		out.Rows, err = exec.Run(ctx, optRes.Plan)
		// Settle the claims whether or not the statement made it: an
		// apply that saw its whole input and stored the last of its
		// results has earned its claim even if an operator above it failed
		// afterwards; one cut short — by the failure, or by a LIMIT that
		// stopped pulling — has not, for results it evaluated may never
		// have been stored.
		cerr := e.settle(claims, ctx.Stored(), opts)
		if err != nil {
			// ErrModelUnavailable: a breaker tripped, replan degrades
			// immediately. ErrEvalFailed: the failed run charged the
			// breaker; re-running either succeeds (fault passed) or
			// accumulates toward the trip that unlocks degradation.
			replannable := errors.Is(err, udf.ErrModelUnavailable) || errors.Is(err, udf.ErrEvalFailed)
			if replannable && attempt < maxReplans {
				continue
			}
			return nil, err
		}
		if cerr != nil {
			e.Recycle(out.Rows)
			return nil, cerr
		}
		return out, nil
	}
}

// ExecuteTraced is Execute in the root session with per-operator
// instrumentation. It and Plan are what bench/ drives the engine
// through, one phase at a time.
func (e *Engine) ExecuteTraced(stmt *parser.SelectStmt, mode optimizer.Mode) (*Outcome, error) {
	return e.Execute(stmt, mode, ExecOpts{Faults: e.faults, Trace: true})
}

// Plan is Execute's dry run in the root session: the optimization
// phase only, nothing executed, no aggregated predicate claimed.
func (e *Engine) Plan(stmt *parser.SelectStmt, mode optimizer.Mode) (*Outcome, error) {
	mode.DryRun = true
	return e.Execute(stmt, mode, ExecOpts{})
}

// Recycle returns a result batch to the engine's pool once the caller
// is done reading it. Safe to call with any batch: unpooled batches
// (or a nil pool) are left for the garbage collector. After Recycle
// the batch must not be touched — under the evadebug poison mode a
// stale read trips immediately.
func (e *Engine) Recycle(b *types.Batch) {
	if e.Pool != nil && b != nil && b.Pooled() {
		e.Pool.Put(b)
	}
}

// Reset discards all materialized state: views, aggregated predicates,
// counters, and the clock.
func (e *Engine) Reset() error {
	if err := e.Store.DropViews(); err != nil {
		return err
	}
	e.Manager.Reset()
	e.Runtime.ResetCounters()
	e.Clock.Reset()
	return nil
}
