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
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/udf"
)

// Session is the one thing that executes a statement. What is private
// to one client of a shared System is one udf.Domain — a virtual
// clock, circuit breakers and failure rates, and the fault injector its
// UDF evaluations, view writes and deadline checks draw from — over
// the catalog, UDF runtime and materialized views every session shares.
// Each query gets a fresh memory budget, and all sessions pass the
// System's admission controller. A stream's standing queries are
// sessions too: each delta is a statement of its query's session.
//
// The System itself is a session, its root: the runtime's default
// domain, which charges the engine's own clock and holds the
// engine-wide injector, so System.Exec is Session.Exec on it. Sessions
// opened with NewSession run the executor's shared-view protocol: a key
// being evaluated by one session is claimed, so another session needing
// it waits and then reuses the materialized rows instead of recomputing
// them. The root session runs without it (DESIGN.md §11 has the
// measurements): a root statement overlapping a client's may evaluate a
// key both need twice, which costs time but not correctness — view
// appends are idempotent per key.
//
// A client Session is owned by one goroutine; sessions run concurrently
// with one another.
type Session struct {
	sys    *System
	domain *udf.Domain

	mu sync.Mutex
	// closed rejects further statements with ErrClosed. guarded by mu.
	closed bool
}

// NewSession opens a session over the System. Sessions are cheap:
// closing one releases no shared state, and any number may be open.
func (s *System) NewSession() *Session {
	return &Session{sys: s, domain: s.rt().NewDomain(&simclock.Clock{})}
}

// InjectFaults installs this session's deterministic fault injector:
// its UDF evaluations and view-log writes draw from this schedule
// (other sessions are unaffected). nil disables injection.
func (sess *Session) InjectFaults(inj *faults.Injector) { sess.domain.SetInjector(inj) }

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
// schedule-independent). A statement that ran, failed or not, ends in
// the maintenance epilogue (maintain).
func (sess *Session) ExecStmt(stmt parser.Statement) (*Result, error) {
	sess.mu.Lock()
	closed := sess.closed
	sess.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	s := sess.sys
	s.qmu.RLock()
	if s.closed {
		s.qmu.RUnlock()
		return nil, ErrClosed
	}
	g, err := s.ctl.Admit()
	if err != nil {
		s.qmu.RUnlock()
		return nil, err
	}
	start := time.Now()
	clock := sess.domain.Clock()
	snap := clock.Snapshot()
	var bd simclock.Breakdown
	res, err := func() (*Result, error) {
		// The token and the lock go back on every way out, a panicking
		// UDF implementation's too: Close waits for the lock.
		defer func() {
			bd = clock.Since(snap)
			g.Release(bd.Total())
			if sess != s.root {
				// The root session charges the global clock directly;
				// merging its own breakdown back in would count every
				// statement twice.
				s.mergeBreakdown(bd)
			}
			s.qmu.RUnlock()
		}()
		return sess.dispatch(stmt)
	}()
	if err != nil {
		res = nil
	} else {
		if res == nil {
			res = &Result{}
		}
		res.Breakdown = bd
		res.SimTime = bd.Total()
		res.WallTime = time.Since(start)
	}
	s.maintain()
	return res, err
}

// maintain is the statement epilogue: virtual time just advanced, so
// it asks the scrub and evict cadences whether a pass is due and runs
// the due passes here, on the statement's goroutine, after its result
// is complete. A pass quiesces statements (qmu writer), so while
// another admitted statement is running the cadences degrade instead
// of waiting for it (server.Controller.Busy).
func (s *System) maintain() {
	if s.cfg.ScrubInterval <= 0 && s.cfg.EvictInterval <= 0 {
		return
	}
	s.maintMu.Lock()
	now, busy := s.clock().Total(), s.ctl.Busy()
	scrub := s.scrub.Due(now, busy)
	evict := s.evict.Due(now, busy)
	s.maintMu.Unlock()
	if !scrub && !evict {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return
	}
	if scrub {
		s.scrubPassLocked()
	}
	if evict {
		s.store.ReclaimOverHighWater()
	}
}

// Select executes one SELECT as a statement of this session and
// returns its rows; it makes a Session the ingest.Session a standing
// query runs its deltas in.
func (sess *Session) Select(stmt *parser.SelectStmt) (*types.Batch, error) {
	res, err := sess.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
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
// entry into core.Engine.Execute. trace collects per-operator
// statistics; mode.DryRun plans without executing. Every session but
// the root runs the shared-view protocol.
func (sess *Session) run(stmt *parser.SelectStmt, mode optimizer.Mode, trace bool) (*core.Outcome, error) {
	return sess.sys.eng.Execute(stmt, mode, core.ExecOpts{Domain: sess.domain, Trace: trace})
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
func (sess *Session) SimulatedTime() time.Duration { return sess.domain.Clock().Total() }

// mergeBreakdown folds one session statement's charges into the
// global clock, category by category. Charges are sums, so concurrent
// merges commute and System.SimulatedTime stays the sum of all work
// ever done, regardless of session interleaving.
func (s *System) mergeBreakdown(bd Breakdown) {
	for cat, d := range bd {
		s.clock().Charge(cat, d)
	}
}
