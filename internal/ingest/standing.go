package ingest

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/parser"
	"eva/internal/simclock"
	"eva/internal/types"
)

// Alert is one standing-query notification: the tumbling window
// [FrameLo, FrameHi) accumulated at least the query's threshold of
// result rows. Alert *state* is exactly-once — it is derived from the
// checkpointed window counts, so a crash-and-resume reproduces the
// same alerts — while *delivery* (the callback) is at-most-once:
// notification happens only after the durable checkpoint, so a crash
// between the two loses the delivery but never duplicates it.
type Alert struct {
	Query   string
	Window  int64
	FrameLo int64
	FrameHi int64
}

// StandingQuery is one registered SELECT incrementally maintained over
// a stream. Its deltas run as statements of its own session. Its
// mutable progress lives in two places: the durable checkpoint
// (pump-owned, see checkpointLog) and a mirror snapshot under mu that
// the public accessors read.
type StandingQuery struct {
	name       string
	stream     *Stream
	stmt       *parser.SelectStmt
	window     int64 // frames per tumbling window
	threshold  int64
	sess       Session
	ckpt       *checkpointLog
	notifySite string
	onAlert    func(Alert)
	alerted    map[int64]bool // pump-owned; windows that already fired

	mu        sync.Mutex
	lsn       int64           // guarded by mu; committed LSN mirror
	windows   map[int64]int64 // guarded by mu; committed counts mirror
	alerts    []Alert         // guarded by mu; fire order
	delivered int             // guarded by mu; successful notifications
	dropped   int             // guarded by mu; permanently failed notifications
}

// Register attaches a standing query to the stream. The SELECT must
// read from the stream's table and project the frame id (the window
// key); window aggregation counts result rows per tumbling window of
// windowFrames frames and fires an alert the first time a window
// reaches threshold. A previous incarnation's durable checkpoint (same
// storage root, same query name) is recovered: counts resume from the
// checkpointed LSN and already-fired alerts are rebuilt, not re-fired.
func (s *Stream) Register(name, sql string, windowFrames, threshold int64, onAlert func(Alert)) (*StandingQuery, error) {
	if name == "" {
		return nil, fmt.Errorf("ingest: standing query needs a name")
	}
	if windowFrames <= 0 || threshold <= 0 {
		return nil, fmt.Errorf("ingest: standing query %q: window (%d) and threshold (%d) must be positive", name, windowFrames, threshold)
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*parser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("ingest: standing query %q: want a SELECT, got %T", name, stmt)
	}
	if err := s.validateStanding(name, sel); err != nil {
		return nil, err
	}
	if err := s.gate(); err != nil {
		return nil, err
	}
	path, err := s.eng.Store.CheckpointPath(s.cfg.Table + "-" + name)
	if err != nil {
		return nil, err
	}
	ckpt, err := openCheckpoint(path, faults.SiteIngestCheckpoint(name), s.eng.Store.Budget())
	if err != nil {
		return nil, err
	}
	q := &StandingQuery{
		name: name, stream: s, stmt: sel,
		window: windowFrames, threshold: threshold,
		sess: s.cfg.NewSession(),
		ckpt: ckpt, notifySite: faults.SiteIngestNotify(name),
		onAlert: onAlert, alerted: map[int64]bool{},
		lsn: ckpt.st.lsn, windows: map[int64]int64{},
	}
	// Rebuild alert state from the recovered counts: exactly-once by
	// derivation, never re-delivered.
	for _, w := range sortedWindows(ckpt.st.windows) {
		q.windows[w] = ckpt.st.windows[w]
		if ckpt.st.windows[w] >= threshold {
			q.alerted[w] = true
			q.alerts = append(q.alerts, q.alert(w))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = ckpt.close()
		return nil, ErrStreamClosed
	}
	for _, other := range s.queries {
		if other.name == name {
			_ = ckpt.close()
			return nil, fmt.Errorf("ingest: standing query %q already registered", name)
		}
	}
	// Under the same lock SetInjector holds, so the query can never be
	// left on a replaced injector.
	q.sess.InjectFaults(s.inj)
	s.queries = append(s.queries, q)
	return q, nil
}

// validateStanding enforces the incremental-execution contract.
func (s *Stream) validateStanding(name string, sel *parser.SelectStmt) error {
	if !strings.EqualFold(sel.From, s.cfg.Table) {
		return fmt.Errorf("ingest: standing query %q reads %q, stream serves %q", name, sel.From, s.cfg.Table)
	}
	if len(sel.OrderBy) > 0 || len(sel.GroupBy) > 0 || sel.Limit >= 0 {
		return fmt.Errorf("ingest: standing query %q: ORDER BY, GROUP BY and LIMIT do not stream (windows aggregate incrementally)", name)
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil
		}
		if col, ok := item.Expr.(*expr.Column); ok && strings.EqualFold(col.Name, "id") {
			return nil
		}
	}
	return fmt.Errorf("ingest: standing query %q must project id (the window key)", name)
}

// alert builds the Alert value for a window.
func (q *StandingQuery) alert(w int64) Alert {
	return Alert{Query: q.name, Window: w, FrameLo: w * q.window, FrameHi: (w + 1) * q.window}
}

// Name returns the query name.
func (q *StandingQuery) Name() string { return q.name }

// LastLSN returns the committed checkpoint LSN: every frame below it
// has been applied to the window counts exactly once.
func (q *StandingQuery) LastLSN() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lsn
}

// Windows snapshots the committed per-window result counts.
func (q *StandingQuery) Windows() map[int64]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[int64]int64, len(q.windows))
	// lint:unordered map copy; destination is a map, order-free
	for w, c := range q.windows {
		out[w] = c
	}
	return out
}

// Alerts snapshots the fired alerts in fire order (recovered alerts
// first, in window order).
func (q *StandingQuery) Alerts() []Alert {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Alert, len(q.alerts))
	copy(out, q.alerts)
	return out
}

// Deliveries reports how many alerts were delivered to the callback
// and how many were dropped by permanent notification faults.
func (q *StandingQuery) Deliveries() (delivered, dropped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.delivered, q.dropped
}

// RecoveredBytes returns the torn-tail bytes dropped from the
// checkpoint log when the query was registered (0 for a clean log).
func (q *StandingQuery) RecoveredBytes() int64 { return q.ckpt.log.Recovered() }

// advance runs increments along the cadence grid until the committed
// LSN reaches target. Pump-owned.
func (q *StandingQuery) advance(target, cadence int64) error {
	for lo := q.ckpt.st.lsn; lo < target; lo = q.ckpt.st.lsn {
		hi := (lo/cadence + 1) * cadence
		if hi > target {
			hi = target
		}
		if err := q.increment(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// increment applies frames [lo, hi) to the query exactly once:
//
//  1. execute the delta SELECT over the id range (view appends inside
//     are idempotent, so re-execution after a crash is safe),
//  2. fold the result rows into a candidate window state (pure),
//  3. durably checkpoint the candidate (the commit point),
//  4. commit the in-memory mirror,
//  5. notify newly alerting windows (after the checkpoint: at-most-once
//     delivery, exactly-once alert state).
//
// A crash at any step leaves the checkpoint either before or after the
// commit point; resume re-executes from the checkpointed LSN and the
// window counts converge to the uninterrupted run's bytes.
func (q *StandingQuery) increment(lo, hi int64) error {
	s := q.stream
	s.mu.Lock()
	s.stats.Increments++
	s.mu.Unlock()

	counts, err := q.runDelta(lo, hi)
	if err != nil {
		return err
	}
	st := q.ckpt.st.clone()
	st.lsn = hi
	// lint:unordered merging deltas into a map; order-free
	for w, c := range counts {
		st.windows[w] += c
	}

	inj := s.injector()
	if err := s.eng.Store.Retry(s.clock, func() error { return q.ckpt.write(st, inj) }); err != nil {
		return err
	}
	s.clock.Charge(simclock.CatMaterialize, costs.CheckpointWriteCost)

	// Commit the mirror, then derive the newly alerting windows in
	// window order (windows fill in frame order, so this is also fire
	// order).
	var fresh []Alert
	for _, w := range sortedWindows(st.windows) {
		if st.windows[w] >= q.threshold && !q.alerted[w] {
			q.alerted[w] = true
			fresh = append(fresh, q.alert(w))
		}
	}
	q.mu.Lock()
	q.lsn = st.lsn
	// lint:unordered map copy; destination is a map, order-free
	for w, c := range st.windows {
		q.windows[w] = c
	}
	q.alerts = append(q.alerts, fresh...)
	q.mu.Unlock()

	for _, a := range fresh {
		if err := q.notify(a, inj); err != nil {
			return err
		}
	}
	return nil
}

// runDelta executes the query over frames [lo, hi) as a statement of
// its session and folds the result rows into per-window counts. A
// delta the session refuses — shed by admission control, say — fails
// the increment like any other error: the checkpoint stays put and
// the next cycle re-runs the delta from it.
func (q *StandingQuery) runDelta(lo, hi int64) (map[int64]int64, error) {
	rows, err := q.sess.Select(q.deltaStmt(lo, hi))
	if err != nil {
		return nil, fmt.Errorf("ingest: standing query %q delta [%d,%d): %w", q.name, lo, hi, err)
	}
	idIdx := rows.Schema().IndexOf("id")
	if idIdx < 0 {
		return nil, fmt.Errorf("ingest: standing query %q: delta result lost the id column (schema %s)", q.name, rows.Schema())
	}
	counts := map[int64]int64{}
	for r := 0; r < rows.Len(); r++ {
		counts[rows.At(r, idIdx).Int()/q.window]++
	}
	// The delta rows are fully folded into counts; hand the batch back
	// to the engine's pool instead of leaving it for the collector —
	// standing queries run once per ingest increment, forever.
	q.stream.eng.Recycle(rows)
	return counts, nil
}

// deltaStmt narrows the registered SELECT to the id range [lo, hi);
// the optimizer pushes the hull down into the scan, so the delta reads
// only the new frames.
func (q *StandingQuery) deltaStmt(lo, hi int64) *parser.SelectStmt {
	st := *q.stmt
	rng := expr.NewAnd(
		expr.NewCmp(expr.OpGe, expr.NewColumn("id"), expr.NewConst(types.NewInt(lo))),
		expr.NewCmp(expr.OpLt, expr.NewColumn("id"), expr.NewConst(types.NewInt(hi))),
	)
	if st.Where != nil {
		st.Where = expr.NewAnd(st.Where, rng)
	} else {
		st.Where = rng
	}
	return &st
}

// notify delivers one alert, consulting the injector at the query's
// notify site (serially consulted, so scripted kill points address the
// k-th notification). Transient faults retry with backoff; a crash
// kills the stream; a permanent fault drops the delivery — the alert
// itself is already durable state.
func (q *StandingQuery) notify(a Alert, inj *faults.Injector) error {
	s := q.stream
	err := s.eng.Store.Retry(s.clock, func() error { return inj.Check(q.notifySite) })
	if faults.IsCrash(err) {
		return fmt.Errorf("ingest: standing query %q notify: %w", q.name, err)
	}
	if err != nil {
		q.mu.Lock()
		q.dropped++
		q.mu.Unlock()
		return nil
	}
	s.clock.Charge(simclock.CatOther, costs.NotifyCost)
	q.mu.Lock()
	q.delivered++
	q.mu.Unlock()
	if q.onAlert != nil {
		q.onAlert(a)
	}
	return nil
}

// sortedWindows returns the map's keys in ascending order.
func sortedWindows(m map[int64]int64) []int64 {
	ws := make([]int64, 0, len(m))
	// lint:unordered key collection; sorted below
	for w := range m {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}
