package eva

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"eva/internal/core"
	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/udf"
)

// Session is the one thing that executes a statement. It carries what
// is private to one client of a shared System — a virtual clock, a
// udf.Domain (circuit breakers, failure rates, UDF fault schedule) and
// a fault injector for view writes and deadline checks — over the
// catalog, UDF runtime and materialized views every session shares.
// Each query gets a fresh memory budget, and all sessions pass the
// System's admission controller.
//
// The System itself is a session, its root: the engine's own clock,
// the runtime's default domain and the engine-wide injector, so
// System.Exec is Session.Exec on it. Sessions opened with NewSession
// run the executor's shared-view protocol: a key being evaluated by
// one session is claimed, so another session needing it waits and then
// reuses the materialized rows instead of recomputing them. The root
// session runs without it (DESIGN.md §11 has the measurements): a root
// statement overlapping a client's may evaluate a key both need twice,
// which costs time but not correctness — view appends are idempotent
// per key.
//
// A client Session is owned by one goroutine; sessions run concurrently
// with one another.
type Session struct {
	sys    *System
	clock  *simclock.Clock
	domain *udf.Domain

	mu sync.Mutex
	// inj is this session's deterministic fault injector. guarded by mu.
	inj *faults.Injector
	// closed rejects further statements with ErrClosed. guarded by mu.
	closed bool
}

// NewSession opens a session over the System. Sessions are cheap:
// closing one releases no shared state, and any number may be open.
func (s *System) NewSession() *Session {
	clock := &simclock.Clock{}
	return &Session{
		sys:    s,
		clock:  clock,
		domain: s.rt().NewDomain(clock),
	}
}

// InjectFaults installs this session's deterministic fault injector:
// its UDF evaluations and view-log writes draw from this schedule
// (other sessions are unaffected). nil disables injection.
func (sess *Session) InjectFaults(inj *faults.Injector) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inj = inj
	sess.domain.SetInjector(inj)
}

// injector returns the session injector under the session lock.
func (sess *Session) injector() *faults.Injector {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.inj
}

// Close marks the session closed; subsequent statements fail with
// ErrClosed. It does not affect the System or other sessions.
func (sess *Session) Close() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.closed = true
	return nil
}

// Exec parses and executes one EVA-QL statement in this session.
func (sess *Session) Exec(sql string) (*Result, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return sess.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated script, returning the
// last statement's result.
func (sess *Session) ExecScript(sql string) (*Result, error) {
	stmts, err := parser.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, stmt := range stmts {
		last, err = sess.ExecStmt(stmt)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt executes one parsed statement in this session. Both the
// session and the system must be open; under admission control
// (Config.MaxConcurrent) the statement first acquires a concurrency
// token — possibly shedding with ErrOverloaded or ErrQueueTimeout
// without executing. Execution is charged to the session clock, whose
// per-statement total feeds the admission clock and is folded into the
// System's global clock (sums commute, so the global totals are
// schedule-independent).
func (sess *Session) ExecStmt(stmt parser.Statement) (*Result, error) {
	sess.mu.Lock()
	closed := sess.closed
	sess.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	s := sess.sys
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	g, err := s.ctl.Admit()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	snap := sess.clock.Snapshot()
	res, err := sess.dispatch(stmt)
	bd := sess.clock.Since(snap)
	g.Release(bd.Total())
	if sess.clock != s.clock() {
		// The root session charges the global clock directly; merging
		// its own breakdown back in would count every statement twice.
		s.mergeBreakdown(bd)
	}
	// Virtual time just advanced; let the background loops check
	// whether a pass is due (non-blocking — the pass itself waits for
	// qmu, which this statement still holds for reading, so it can only
	// start once in-flight statements drain).
	if s.scrubber != nil {
		s.scrubber.Nudge()
	}
	if s.evictor != nil {
		s.evictor.Nudge()
	}
	if err != nil {
		return nil, err
	}
	if res == nil {
		res = &Result{}
	}
	res.Breakdown = bd
	res.SimTime = bd.Total()
	res.WallTime = time.Since(start)
	return res, nil
}

// dispatch routes one parsed statement to its handler. Only SELECT and
// EXPLAIN run in the session; every other kind acts on shared state.
func (sess *Session) dispatch(stmt parser.Statement) (*Result, error) {
	s := sess.sys
	switch st := stmt.(type) {
	case *parser.SelectStmt:
		return sess.execSelect(st)
	case *parser.LoadStmt:
		return nil, s.LoadVideo(st.Table, st.Dataset)
	case *parser.CreateUDFStmt:
		return nil, s.createUDF(st)
	case *parser.ShowStmt:
		return s.execShow(st)
	case *parser.ExplainStmt:
		return sess.execExplain(st)
	case *parser.DropViewsStmt:
		return nil, s.DropViews()
	default:
		return nil, fmt.Errorf("eva: unsupported statement %T", stmt)
	}
}

// run sends one SELECT through the engine in this session — the one
// entry into core.Engine.Execute for statements. A standing query's
// delta (ingest.StandingQuery.runDelta) is the other caller and goes
// around the session: DESIGN.md §12 lists what it skips. trace collects
// per-operator statistics; mode.DryRun plans without executing. Every
// session but the root runs the shared-view protocol.
func (sess *Session) run(stmt *parser.SelectStmt, mode optimizer.Mode, trace bool) (*core.Outcome, error) {
	return sess.sys.eng.Execute(stmt, mode, core.ExecOpts{
		Clock:    sess.clock,
		Domain:   sess.domain,
		Faults:   sess.injector(),
		Budget:   server.NewMemBudget(sess.sys.cfg.MemoryBudget),
		Sessions: sess != sess.sys.root,
		Trace:    trace,
	})
}

func (sess *Session) execSelect(stmt *parser.SelectStmt) (*Result, error) {
	s := sess.sys
	mode := s.optimizerMode()
	table := strings.ToLower(stmt.From)
	if s.cfg.Mode == ModeHashStash {
		// HashStash: the recycler graph sub-tree-matches the query's
		// apply operator against previously materialized outputs; the
		// coverage callback implements its all-or-nothing reuse rule.
		mode.TableCovered = func(udfName string, lo, hi int64) bool {
			return s.recCovered(recyclerKey(table, udfName), lo, hi)
		}
	}
	out, err := sess.run(stmt, mode, false)
	if err != nil {
		return nil, err
	}
	if s.cfg.Mode == ModeHashStash && out.Report.DetectorEval != "" {
		// Register the freshly materialized operator output.
		s.recAdd(recyclerKey(table, out.Report.DetectorEval), out.Report.ScanLo, out.Report.ScanHi)
	}
	return &Result{Rows: out.Rows, PlanText: plan.Explain(out.Plan), Report: out.Report}, nil
}

// execExplain optimizes without mutating reuse state; with ANALYZE it
// also executes the plan (normally, with commits) and reports
// per-operator statistics.
func (sess *Session) execExplain(st *parser.ExplainStmt) (*Result, error) {
	mode := sess.sys.optimizerMode()
	mode.DryRun = !st.Analyze
	out, err := sess.run(st.Select, mode, st.Analyze)
	if err != nil {
		return nil, err
	}
	text := plan.Explain(out.Plan)
	if st.Analyze {
		text = out.Trace.String()
	}
	sch := types.MustSchema(types.Column{Name: "plan", Kind: types.KindString})
	rows := types.NewBatch(sch)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows.MustAppendRow(types.NewString(line))
	}
	return &Result{Rows: rows, PlanText: text, Report: out.Report}, nil
}

// SimulatedTime returns the session clock's total.
func (sess *Session) SimulatedTime() time.Duration { return sess.clock.Total() }

// mergeBreakdown folds one session statement's charges into the
// global clock, category by category. Charges are sums, so concurrent
// merges commute and System.SimulatedTime stays the sum of all work
// ever done, regardless of session interleaving.
func (s *System) mergeBreakdown(bd Breakdown) {
	for cat, d := range bd {
		s.clock().Charge(cat, d)
	}
}
