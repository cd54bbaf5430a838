package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eva"
	"eva/internal/simclock"
)

// kind is the shape of a workload's timed loop.
type kind int

const (
	// kindCold opens a fresh storage directory for every session.
	kindCold kind = iota
	// kindSteady runs every session on one long-lived system.
	kindSteady
	// kindReopen opens the same populated directory for every session.
	kindReopen
	// kindSessions drives one system from two eva.Session clients.
	kindSessions
)

// workload is one set of inputs the benchmark runs. A session is the
// eight generated VBENCH-HIGH queries in order.
type workload struct {
	Name   string
	Why    string
	Kind   kind
	Mode   eva.SystemMode
	Sparse bool
}

// workloads is the benchmark's fixed list; BENCHMARK.json repeats the
// names and reasons and bench_test.go checks that the two agree.
var workloads = []workload{
	{"high-cold", "fresh directory per session: every query materialises and partly reuses its predecessors, so view append, segment write, UDF evaluation and the optimizer all work", kindCold, eva.ModeEVA, false},
	{"high-warm", "views fully materialised: almost pure view probe, expression filter and project; must not move for append or UDF changes", kindSteady, eva.ModeEVA, false},
	{"high-noreuse", "no-reuse mode bypasses symbolic analysis, view storage and probe: the control for reuse-path changes and the real-wall denominator of the paper's speedup", kindSteady, eva.ModeNoReuse, false},
	{"reopen-warm", "eva.Open on a populated directory per session: view-log replay and segment reads from disk, the storage layer as reader of its own log", kindReopen, eva.ModeEVA, false},
	{"sparse-warm", "0.1 objects per frame, ~4 ms queries: per-query parse, symbolic and optimizer cost and per-frame probe dominate; the only workload where planning changes show", kindSteady, eva.ModeEVA, true},
	{"sessions-2", "two eva.Session clients on one warm system (clients = nproc): the Session execution path, admission control and shared-view read scaling", kindSessions, eva.ModeEVA, false},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	Seed    uint64
	Seconds float64
	// Scale multiplies both datasets' frame counts (tests use 0.015).
	Scale float64
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median. The command always uses setupReps; tests set 1.
	SetupReps int
	// OutDir holds the run's scratch directories and output files.
	OutDir string
	// MinSessions is the least number of sessions per client in an
	// end-to-end timed section, however short -seconds is. The command
	// always uses minSessions; tests lower it to stay cheap.
	MinSessions int
}

// minSessions keeps at least 104 query samples behind every
// percentile, so that p90 has ten samples beyond it however slow the
// machine is.
const minSessions = 13

// setupReps is how many times the command sets a workload up.
const setupReps = 3

// execer is what a client holds: *eva.System and *eva.Session both
// satisfy it.
type execer interface {
	Exec(sql string) (*eva.Result, error)
}

// counters are the cumulative counts a system keeps: UDF demand summed
// over UDFs, batch-pool traffic, admission outcomes. A timed section
// reports the difference between two readings.
type counters struct {
	udfTotal, udfReused, udfEvaluated int
	poolHits, poolMisses              int64
	admitted, shed                    int
}

func countersOf(sys *eva.System) counters {
	var c counters
	for _, s := range sys.UDFCounters() {
		c.udfTotal += s.Total
		c.udfReused += s.Reused
		c.udfEvaluated += s.Evaluated
	}
	ps, adm := sys.PoolStats(), sys.AdmissionStats()
	c.poolHits, c.poolMisses = ps.Hits, ps.Misses
	c.admitted, c.shed = adm.Admitted, adm.ShedOverload+adm.ShedTimeout
	return c
}

// plus returns c + sign×o.
func (c counters) plus(o counters, sign int) counters {
	return counters{
		c.udfTotal + sign*o.udfTotal, c.udfReused + sign*o.udfReused, c.udfEvaluated + sign*o.udfEvaluated,
		c.poolHits + int64(sign)*o.poolHits, c.poolMisses + int64(sign)*o.poolMisses,
		c.admitted + sign*o.admitted, c.shed + sign*o.shed,
	}
}

// recorder collects one client's observations over a timed section.
type recorder struct {
	queryWalls   []float64 // ms, every query
	sessionWalls []float64 // ms, sum of a session's query walls
	firstResults []float64 // ms, session start to first rows
	simSessions  []float64 // s, virtual-clock time of a session
	// Per-session median and p90 query wall and per-session query rate.
	// The reported figures pool every query of the section; these give
	// them a spread, so that -check can tell unresolved from disagree.
	sessionP50s  []float64 // ms
	sessionP90s  []float64 // ms
	sessionRates []float64 // 1/s, completed queries over session start to last rows
	breakdown    simclock.Breakdown
	attempted    int
	failed       int
	errs         []string
	digests      []uint64 // last session's digests, by query index
	buf          []byte
	// completed, when set, counts the section's completed queries over
	// all clients (the meter's allocation samples divide by it).
	completed *atomic.Int64
}

func newRecorder() *recorder { return &recorder{breakdown: simclock.Breakdown{}} }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// session runs the queries once, starting at query rot, timing each
// Exec from outside. Every result is digested and compared with ref
// (nil skips the comparison: the reference run itself); an error or a
// mismatch is a failed operation. start is when the session began, so
// that a workload which opens a system per session counts the open in
// first_result_ms.
func (r *recorder) session(ex execer, sys *eva.System, qs []query, ref []uint64, rot int, start time.Time) {
	if len(r.digests) != len(qs) {
		r.digests = make([]uint64, len(qs))
	}
	var sum, sim time.Duration
	walls := make([]float64, 0, len(qs))
	for k := range qs {
		i := (k + rot) % len(qs)
		t := time.Now()
		res, err := ex.Exec(qs[i].SQL)
		wall := time.Since(t)
		if k == 0 {
			r.firstResults = append(r.firstResults, ms(time.Since(start)))
		}
		r.attempted++
		if err != nil {
			r.fail("%s: %v", qs[i].Label, err)
			continue
		}
		r.digests[i], r.buf = rowDigest(res.Rows, r.buf)
		if ref != nil && r.digests[i] != ref[i] {
			r.fail("%s: digest %016x, no-reuse reference %016x", qs[i].Label, r.digests[i], ref[i])
		}
		sim += res.SimTime
		for cat, d := range res.Breakdown {
			r.breakdown[cat] += d
		}
		sys.Recycle(res.Rows)
		sum += wall
		walls = append(walls, ms(wall))
		if r.completed != nil {
			r.completed.Add(1)
		}
	}
	r.queryWalls = append(r.queryWalls, walls...)
	r.sessionWalls = append(r.sessionWalls, ms(sum))
	r.simSessions = append(r.simSessions, sim.Seconds())
	if len(walls) > 0 {
		sort.Float64s(walls)
		r.sessionP50s = append(r.sessionP50s, quantile(walls, 0.5))
		r.sessionP90s = append(r.sessionP90s, quantile(walls, 0.9))
		r.sessionRates = append(r.sessionRates, float64(len(walls))/time.Since(start).Seconds())
	}
}

func (r *recorder) merge(o *recorder) {
	r.queryWalls = append(r.queryWalls, o.queryWalls...)
	r.sessionWalls = append(r.sessionWalls, o.sessionWalls...)
	r.firstResults = append(r.firstResults, o.firstResults...)
	r.simSessions = append(r.simSessions, o.simSessions...)
	r.sessionP50s = append(r.sessionP50s, o.sessionP50s...)
	r.sessionP90s = append(r.sessionP90s, o.sessionP90s...)
	r.sessionRates = append(r.sessionRates, o.sessionRates...)
	r.breakdown = r.breakdown.Add(o.breakdown)
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// fixture is the state set-up leaves for the timed section.
type fixture struct {
	wl  workload
	in  inputs
	ref []uint64 // per-query digests of the no-reuse reference session
	dir string   // scratch root, removed by close
	// sys is the long-lived system (kindSteady, kindSessions).
	sys *eva.System
	// evaDir is the populated EVA directory (kindReopen reopens it).
	evaDir string
	// evaFootprint is the view bytes on disk after the warm-up session.
	evaFootprint int64
}

func (f *fixture) close() {
	if f.sys != nil {
		f.sys.Close()
	}
	os.RemoveAll(f.dir)
}

func (wl workload) evaConfig(dir string) eva.Config {
	cfg := eva.Config{Dir: dir, Mode: eva.ModeEVA}
	if wl.Kind == kindSessions {
		cfg.MaxConcurrent = 2
		cfg.AdmissionQueueDepth = 2
	}
	return cfg
}

func openLoaded(cfg eva.Config, in inputs) (*eva.System, error) {
	sys, err := eva.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadDataset("video", in.Dataset); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// buildFixture is the whole set-up of one workload, identical for all
// six: generate the inputs, run one no-reuse session for the reference
// digests, run one EVA session in a persisted directory and require it
// to return the same rows ("reuse is invisible"), and keep whichever
// system the timed section needs. The untimed sessions also fill the
// segment cache (no-reuse) and materialise every view (EVA).
func buildFixture(cfg config, wl workload) (*fixture, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "work-")
	if err != nil {
		return nil, err
	}
	f := &fixture{wl: wl, in: genInputs(cfg.Seed, wl.Sparse, cfg.Scale), dir: dir, evaDir: filepath.Join(dir, "eva")}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	noreuse, err := openLoaded(eva.Config{Dir: filepath.Join(dir, "noreuse"), Mode: eva.ModeNoReuse}, f.in)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rec.session(noreuse, noreuse, f.in.Queries, nil, 0, time.Now())
	f.ref = append([]uint64(nil), rec.digests...)
	if wl.Kind == kindSteady && wl.Mode == eva.ModeNoReuse {
		f.sys = noreuse
	} else if err := noreuse.Close(); err != nil {
		return nil, err
	}

	evaSys, err := openLoaded(wl.evaConfig(f.evaDir), f.in)
	if err != nil {
		return nil, err
	}
	rec.session(evaSys, evaSys, f.in.Queries, f.ref, 0, time.Now())
	f.evaFootprint = evaSys.ViewFootprint()
	if wl.Mode == eva.ModeEVA && (wl.Kind == kindSteady || wl.Kind == kindSessions) {
		f.sys = evaSys
	} else if err := evaSys.Close(); err != nil {
		return nil, err
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("set-up sessions failed: %v", rec.errs)
	}
	ok = true
	return f, nil
}

// timedRun is what one timed section measured.
type timedRun struct {
	rec      *recorder
	sessions int
	elapsed  time.Duration
	// allocs and allocKB are allocations and KiB allocated per completed
	// query, one sample per session of the first client.
	allocs  []float64
	allocKB []float64
	heapMB  float64
	// counts is the counter difference over the section; footprint is
	// the view bytes on disk when it ended.
	counts    counters
	footprint int64
}

// meter brackets a timed section: a forced GC before it, the loop
// condition, allocation samples at session boundaries, and the live
// heap after it.
type meter struct {
	start   time.Time
	budget  time.Duration
	minimum int
	// completed counts queries completed by all clients.
	completed atomic.Int64
	last      runtime.MemStats
	lastDone  int64
	out       *timedRun
}

func startMeter(seconds float64, minimum int, out *timedRun) *meter {
	m := &meter{budget: time.Duration(seconds * float64(time.Second)), minimum: minimum, out: out}
	runtime.GC()
	runtime.ReadMemStats(&m.last)
	m.start = time.Now()
	return m
}

func (m *meter) recorder() *recorder {
	r := newRecorder()
	r.completed = &m.completed
	return r
}

func (m *meter) done(sessions int) bool {
	return time.Since(m.start) >= m.budget && sessions >= m.minimum
}

// sample records the allocations since the previous sample, per query
// completed meanwhile by any client. The first client calls it after
// each of its sessions. The metrics are medians of these samples: the
// batch pool is a sync.Pool, so a garbage collection makes the next
// session re-grow what the pool dropped, and a mean over the section
// would move with the number of collections.
func (m *meter) sample() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	done := m.completed.Load()
	if n := float64(done - m.lastDone); n > 0 {
		m.out.allocs = append(m.out.allocs, float64(now.Mallocs-m.last.Mallocs)/n)
		m.out.allocKB = append(m.out.allocKB, float64(now.TotalAlloc-m.last.TotalAlloc)/1024/n)
	}
	m.last, m.lastDone = now, done
}

// stop ends the section and reads the live heap; the caller still
// holds its system open.
func (m *meter) stop() {
	m.out.elapsed = time.Since(m.start)
	m.out.heapMB = liveHeapMB()
}

// liveHeapMB is HeapAlloc after two collections: what a sync.Pool (the
// batch pool) holds survives one, and is not live data.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// merge appends a later section of the same workload.
func (t *timedRun) merge(o *timedRun) {
	t.rec.merge(o.rec)
	t.sessions += o.sessions
	t.elapsed += o.elapsed
	t.allocs = append(t.allocs, o.allocs...)
	t.allocKB = append(t.allocKB, o.allocKB...)
	t.heapMB = o.heapMB
	t.counts = t.counts.plus(o.counts, +1)
	t.footprint = o.footprint
}

// timed runs the workload's closed loop for the given time and at
// least minimum sessions per client. One client issues a query only
// after the previous one returned; kindSessions runs `clients` of
// them. Between queries the client digests the rows it got and hands
// the batch back to the pool — that is the loop's think time, and it
// is inside the timed wall.
func timed(f *fixture, seconds float64, minimum, clients int) (*timedRun, error) {
	out := &timedRun{}
	qs := f.in.Queries
	switch f.wl.Kind {
	case kindCold, kindReopen:
		// The section ends when the last session's last query returns,
		// with that session's system still open for the heap reading;
		// every earlier session's Close (and, cold, directory removal)
		// is inside the timed wall.
		m := startMeter(seconds, minimum, out)
		out.rec = m.recorder()
		for last := false; !last; {
			dir := f.evaDir
			if f.wl.Kind == kindCold {
				dir = filepath.Join(f.dir, "cold") // removed below, every session
			}
			start := time.Now()
			sys, err := openLoaded(f.wl.evaConfig(dir), f.in)
			if err != nil {
				return nil, err
			}
			out.rec.session(sys, sys, qs, f.ref, 0, start)
			out.sessions++
			m.sample()
			if last = m.done(out.sessions); last {
				m.stop()
			}
			out.counts = out.counts.plus(countersOf(sys), +1)
			out.footprint = sys.ViewFootprint()
			if err := sys.Close(); err != nil {
				return nil, err
			}
			if f.wl.Kind == kindCold {
				os.RemoveAll(dir)
			}
		}

	case kindSteady, kindSessions:
		// One goroutine per client; kindSteady's single client calls the
		// System itself, kindSessions' clients each hold a Session.
		base := countersOf(f.sys)
		recs := make([]*recorder, clients)
		counts := make([]int, clients)
		m := startMeter(seconds, minimum, out)
		out.rec = newRecorder()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			recs[c] = m.recorder()
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var ex execer = f.sys
				if f.wl.Kind == kindSessions {
					sess := f.sys.NewSession()
					defer sess.Close()
					ex = sess
				}
				// Clients start half a session apart so that they do not
				// run the same query at the same moment.
				rot := c * len(qs) / clients
				for !m.done(counts[c]) {
					recs[c].session(ex, f.sys, qs, f.ref, rot, time.Now())
					counts[c]++
					if c == 0 {
						m.sample()
					}
				}
			}(c)
		}
		wg.Wait()
		m.stop()
		for c := range recs {
			out.rec.merge(recs[c])
			out.sessions += counts[c]
		}
		out.counts = countersOf(f.sys).plus(base, -1)
		out.footprint = f.sys.ViewFootprint()
	}
	return out, nil
}

// runResult is one (workload, trace mode) run.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Sessions  int      `json:"sessions"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	// SQL and Digests identify the inputs and outputs of the run, so
	// that two runs at one seed can be compared exactly.
	SQL     []string `json:"sql"`
	Digests []string `json:"digests"`
}

func (r *runResult) value(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *runResult) identify(f *fixture) {
	for i, q := range f.in.Queries {
		r.SQL = append(r.SQL, q.SQL)
		r.Digests = append(r.Digests, fmt.Sprintf("%016x", f.ref[i]))
	}
}

func clientsOf(wl workload) int {
	if wl.Kind == kindSessions {
		return 2
	}
	return 1
}

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off: set-up SetupReps times (the last fixture is kept), then
// one timed section on untraced System/Session.Exec.
func runEndToEnd(cfg config, wl workload) (*runResult, error) {
	var (
		f      *fixture
		setups []float64
	)
	// What the process held before this workload (the runtime; in a
	// suite, earlier workloads' results and spans) is not the system's.
	heapBefore := liveHeapMB()
	for i := 0; i < cfg.SetupReps; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = buildFixture(cfg, wl); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer f.close()

	t, err := timed(f, cfg.Seconds, cfg.MinSessions, clientsOf(wl))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	rec := t.rec
	res := &runResult{Workload: wl.Name, Sessions: t.sessions, Attempted: rec.attempted, Failed: rec.failed, Errors: rec.errs}
	res.identify(f)
	completed := float64(rec.attempted - rec.failed)
	if completed == 0 {
		return res, nil
	}
	walls := sorted(rec.queryWalls)
	res.Metrics = []metric{
		medianOf("session_wall_ms", "ms", rec.sessionWalls),
		{Name: "query_wall_p50_ms", Value: quantile(walls, 0.5), Unit: "ms", Samples: len(walls), Spread: spread(rec.sessionP50s)},
		{Name: "query_wall_p90_ms", Value: quantile(walls, 0.9), Unit: "ms", Samples: len(walls), Spread: spread(rec.sessionP90s)},
		{Name: "queries_per_s", Value: completed / t.elapsed.Seconds(), Unit: "1/s", Samples: len(walls), Spread: spread(rec.sessionRates)},
		medianOf("first_result_ms", "ms", rec.firstResults),
		medianOf("allocs_per_query", "count", t.allocs),
		{Name: "live_heap_mb", Value: t.heapMB - heapBefore, Unit: "MiB"},
		medianOf("sim_session_s", "s", rec.simSessions),
		medianOf("setup_s", "s", setups),
	}
	return res, nil
}
