package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"eva"
	"eva/internal/core"
	"eva/internal/exec"
	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
)

// The traced pass. End-to-end numbers come from untraced Exec calls;
// here the benchmark assembles storage.Open + core.New itself, the way
// eva.Open does, and records a span around each call it makes into a
// layer: query → parse | plan (dry run) | execute → one span per
// operator of ExecuteTraced's statistics. Spans live in memory and are
// written out when the benchmark ends. Spans inside the engine are a
// later change (ROADMAP item 2).

// span is one timed interval. Spans of one statement share Query;
// Parent is the span that caused this one (0 for a query span).
// Operator spans carry inclusive wall time as reported by the
// executor, which records durations and not start times; their Start
// is their execute span's.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Query   int64  `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Rows    int    `json:"rows,omitempty"`
	Batches int    `json:"batches,omitempty"`
}

// tracer is the in-memory span sink, shared by concurrent clients.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	next  int64  // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a batch of spans under fresh ids. Within the batch,
// Parent and Query hold indexes into the batch plus one (0 = none);
// add rewrites them to the assigned ids.
func (t *tracer) add(batch []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	t.next += int64(len(batch))
	for _, s := range batch {
		s.ID += base
		s.Query += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// opSelf is what one traced session measured: the sum of its queries'
// walls, and the self time and rows of each class of operator.
type opSelf struct {
	wall                                time.Duration
	scan, filter, apply, project, other time.Duration
	overhead                            time.Duration
	applyIn, examined, results          int
	negative                            bool
}

// foldStats turns one execution's operator statistics (pre-order, with
// depths, inclusive wall) into spans and adds each operator's self
// time — its wall minus its children's — to acc by operator class.
func foldStats(stats []exec.OperatorStat, execute time.Duration, batch []span, execIdx int64, acc *opSelf) []span {
	first := int64(len(batch))
	parentAt := []int64{} // span index+1 of the open operator at each depth
	for i, s := range stats {
		children := time.Duration(0)
		in := 0
		for j := i + 1; j < len(stats) && stats[j].Depth > s.Depth; j++ {
			if stats[j].Depth == s.Depth+1 {
				children += stats[j].Wall
				in += stats[j].Rows
			}
		}
		self := s.Wall - children
		if self < 0 {
			acc.negative = true
		}
		switch {
		case strings.HasPrefix(s.Describe, "Scan("):
			acc.scan += self
		case strings.HasPrefix(s.Describe, "Filter("):
			acc.filter += self
		case strings.HasPrefix(s.Describe, "ScalarApply"), strings.HasPrefix(s.Describe, "CrossApply"):
			acc.apply += self
			acc.applyIn += in
		case strings.HasPrefix(s.Describe, "Project("):
			acc.project += self
		default:
			acc.other += self
		}
		acc.examined += in
		parent := execIdx
		if s.Depth > 0 && s.Depth <= len(parentAt) {
			parent = parentAt[s.Depth-1]
		}
		name := s.Describe
		if k := strings.IndexByte(name, '('); k > 0 {
			name = name[:k]
		}
		batch = append(batch, span{
			ID: first + int64(i) + 1, Parent: parent, Query: 1, Name: "op:" + name,
			StartNS: batch[execIdx-1].StartNS, DurNS: s.Wall.Nanoseconds(), Rows: s.Rows, Batches: s.Batches,
		})
		parentAt = append(parentAt[:s.Depth], first+int64(i)+1)
	}
	if len(stats) > 0 {
		acc.overhead += execute - stats[0].Wall
		acc.results += stats[0].Rows
	}
	return batch
}

// directEngine is the semantic-reuse engine assembled without the eva
// facade, so that Plan and ExecuteTraced can be called one at a time.
type directEngine struct {
	store *storage.Engine
	eng   *core.Engine
	mode  optimizer.Mode
	// ctl is the admission controller the sessions-2 clients pass
	// (nil admits everything, as in eva.System).
	ctl *server.Controller
}

func openDirect(dir string, in inputs, wl workload) (*directEngine, error) {
	store, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	eng := core.New(store, 0)
	eng.Pool = types.NewBatchPool()
	if _, err := eng.Catalog.RegisterVideo("video", in.Dataset); err != nil {
		store.Close()
		return nil, err
	}
	if _, err := store.CreateVideo("video", in.Dataset); err != nil {
		store.Close()
		return nil, err
	}
	d := &directEngine{store: store, eng: eng, mode: optimizer.EVAMode()}
	if wl.Mode == eva.ModeNoReuse {
		d.mode = optimizer.NoReuseMode()
	}
	if wl.Kind == kindSessions {
		d.ctl = server.NewController(server.Config{MaxConcurrent: 2, QueueDepth: 2})
	}
	return d, nil
}

// tracedSession runs the queries once on the direct engine, starting
// at query rot, and verifies every digest. With a tracer it records
// spans and folds operator self times into the result; with a nil
// tracer it only executes (warm-up).
func (d *directEngine) tracedSession(t *tracer, qs []query, ref []uint64, rot int, rec *recorder) opSelf {
	var acc opSelf
	for k := range qs {
		i := (k + rot) % len(qs)
		rec.attempted++
		t0 := time.Now()
		g, err := d.ctl.Admit()
		if err != nil {
			rec.fail("%s: admit: %v", qs[i].Label, err)
			continue
		}
		t1 := time.Now()
		stmt, err := parser.Parse(qs[i].SQL)
		t2 := time.Now()
		sel, ok := stmt.(*parser.SelectStmt)
		if err != nil || !ok {
			g.Release(0)
			rec.fail("%s: parse: %v", qs[i].Label, err)
			continue
		}
		_, err = d.eng.Plan(sel, d.mode)
		t3 := time.Now()
		if err != nil {
			g.Release(0)
			rec.fail("%s: plan: %v", qs[i].Label, err)
			continue
		}
		snap := d.eng.Clock.Snapshot()
		out, err := d.eng.ExecuteTraced(sel, d.mode)
		t4 := time.Now()
		g.Release(d.eng.Clock.Since(snap).Total())
		if err != nil {
			rec.fail("%s: execute: %v", qs[i].Label, err)
			continue
		}
		acc.wall += t4.Sub(t0)
		var dg uint64
		dg, rec.buf = rowDigest(out.Rows, rec.buf)
		if dg != ref[i] {
			rec.fail("%s: traced digest %016x, no-reuse reference %016x", qs[i].Label, dg, ref[i])
		}
		if t != nil {
			at := func(x time.Time) int64 { return x.Sub(t.origin).Nanoseconds() }
			batch := []span{
				{ID: 1, Query: 1, Name: "query:" + qs[i].Label, StartNS: at(t0), DurNS: t4.Sub(t0).Nanoseconds(), Rows: out.Rows.Len()},
				{ID: 2, Parent: 1, Query: 1, Name: "admit", StartNS: at(t0), DurNS: t1.Sub(t0).Nanoseconds()},
				{ID: 3, Parent: 1, Query: 1, Name: "parse", StartNS: at(t1), DurNS: t2.Sub(t1).Nanoseconds()},
				{ID: 4, Parent: 1, Query: 1, Name: "plan", StartNS: at(t2), DurNS: t3.Sub(t2).Nanoseconds()},
				{ID: 5, Parent: 1, Query: 1, Name: "execute", StartNS: at(t3), DurNS: t4.Sub(t3).Nanoseconds()},
			}
			t.add(foldStats(out.Trace.Stats(), t4.Sub(t3), batch, 5, &acc))
		}
		d.eng.Recycle(out.Rows)
	}
	return acc
}

// tracedPhase runs traced sessions of the workload for the given time
// (at least minimum sessions per client) and returns what each measured.
func tracedPhase(f *fixture, t *tracer, seconds float64, minimum int, rec *recorder) ([]opSelf, error) {
	qs := f.in.Queries
	budget := time.Duration(seconds * float64(time.Second))
	var accs []opSelf
	dir := filepath.Join(f.dir, "traced")
	switch f.wl.Kind {
	case kindSteady, kindSessions:
		d, err := openDirect(dir, f.in, f.wl)
		if err != nil {
			return nil, err
		}
		defer d.store.Close()
		d.tracedSession(nil, qs, f.ref, 0, rec) // warm-up: views, segment cache
		clients := clientsOf(f.wl)
		perClient := make([][]opSelf, clients)
		recs := make([]*recorder, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			recs[c] = newRecorder()
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for n := 0; time.Since(start) < budget || n < minimum; n++ {
					perClient[c] = append(perClient[c], d.tracedSession(t, qs, f.ref, c*len(qs)/clients, recs[c]))
				}
			}(c)
		}
		wg.Wait()
		for c := range recs {
			accs = append(accs, perClient[c]...)
			rec.merge(recs[c])
		}

	case kindCold, kindReopen:
		if f.wl.Kind == kindReopen {
			// Populate the directory once, then close it: every traced
			// session below replays the logs this one wrote.
			d, err := openDirect(dir, f.in, f.wl)
			if err != nil {
				return nil, err
			}
			d.tracedSession(nil, qs, f.ref, 0, rec)
			if err := d.store.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for n := 0; time.Since(start) < budget || n < minimum; n++ {
			d, err := openDirect(dir, f.in, f.wl)
			if err != nil {
				return nil, err
			}
			accs = append(accs, d.tracedSession(t, qs, f.ref, 0, rec))
			if err := d.store.Close(); err != nil {
				return nil, err
			}
			if f.wl.Kind == kindCold {
				os.RemoveAll(dir)
			}
		}
	}
	return accs, nil
}

// eachMS extracts one duration of every session, in milliseconds.
func eachMS(accs []opSelf, f func(opSelf) time.Duration) []float64 {
	v := make([]float64, len(accs))
	for i, a := range accs {
		v[i] = ms(f(a))
	}
	return v
}

// execMetrics summarises the traced sessions: medians of the
// per-session self times, and ratios over all sessions.
func execMetrics(accs []opSelf) ([]metric, error) {
	pick := func(name string, f func(opSelf) time.Duration) metric {
		return medianOf(name, "ms", eachMS(accs, f))
	}
	var applyNS, applyIn, examined, results float64
	for _, a := range accs {
		if a.negative {
			return nil, fmt.Errorf("an operator's self time is negative: its children's wall exceeds its own")
		}
		applyNS += float64(a.apply.Nanoseconds())
		applyIn += float64(a.applyIn)
		examined += float64(a.examined)
		results += float64(a.results)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []metric{
		pick("exec.scan_self_ms", func(a opSelf) time.Duration { return a.scan }),
		pick("exec.filter_self_ms", func(a opSelf) time.Duration { return a.filter }),
		pick("exec.apply_self_ms", func(a opSelf) time.Duration { return a.apply }),
		pick("exec.project_self_ms", func(a opSelf) time.Duration { return a.project + a.other }),
		pick("exec.overhead_ms", func(a opSelf) time.Duration { return a.overhead }),
		{Name: "exec.apply_ns_per_row", Value: ratio(applyNS, applyIn), Unit: "ns", Samples: int(applyIn)},
		{Name: "exec.rows_examined_per_result", Value: ratio(examined, results), Unit: "count", Samples: int(results)},
	}, nil
}

// runTraced measures the per-layer metrics of one workload. The time
// is split between an untraced section (counters, virtual-clock
// breakdown, and the base for the tracing overhead), the traced
// sessions, and the direct-call layer runs.
func runTraced(cfg config, wl workload, t *tracer) (*runResult, error) {
	f, err := buildFixture(cfg, wl)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
	}
	defer f.close()
	const minimum = 2 // sessions per phase; no percentile is taken here

	res := &runResult{Workload: wl.Name, Traced: true}
	res.identify(f)
	count := func(r *recorder) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
	}

	// kindSessions first runs one client alone: the base of its
	// parallel efficiency, on the same system and the same path.
	share := 0.3
	efficiency, baseQPS := 0.0, 0.0
	if wl.Kind == kindSessions {
		share = 0.15
		one, err := timed(f, share*cfg.Seconds, minimum, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		count(one.rec)
		baseQPS = float64(one.rec.attempted-one.rec.failed) / one.elapsed.Seconds()
	}
	// The untraced section runs in two halves around the traced one, so
	// that a drift of the machine over the run does not read as tracing
	// overhead.
	un, err := timed(f, share/2*cfg.Seconds, minimum, clientsOf(wl))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	rec := newRecorder()
	accs, err := tracedPhase(f, t, 0.3*cfg.Seconds, minimum, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", wl.Name, err)
	}
	count(rec)
	res.Sessions = len(accs)
	second, err := timed(f, share/2*cfg.Seconds, minimum, clientsOf(wl))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	un.merge(second)
	count(un.rec)
	if baseQPS > 0 {
		efficiency = float64(un.rec.attempted-un.rec.failed) / un.elapsed.Seconds() / (2 * baseQPS)
	}
	if res.Failed > 0 {
		return res, nil
	}

	res.Metrics, err = layerRuns(f.in, f.ref, filepath.Join(f.dir, "layers"), 0.4*cfg.Seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: layer runs: %w", wl.Name, err)
	}
	em, err := execMetrics(accs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	res.Metrics = append(res.Metrics, em...)

	// Counts are divided as integers: every session of a workload does
	// the same work, so the quotient is exact and repeats bit for bit.
	perSession := func(total int) float64 { return float64(total / un.sessions) }
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}
	tracedWall := median(eachMS(accs, func(a opSelf) time.Duration { return a.wall }))
	base := f.evaFootprint
	if wl.Kind == kindCold || wl.Mode == eva.ModeNoReuse {
		base = 0
	}
	res.Metrics = append(res.Metrics,
		metric{Name: "udf.evaluated", Value: perSession(un.counts.udfEvaluated), Unit: "count"},
		metric{Name: "udf.reused", Value: perSession(un.counts.udfReused), Unit: "count"},
		metric{Name: "udf.hit_pct", Value: pct(float64(un.counts.udfReused), float64(un.counts.udfTotal)), Unit: "%"},
		medianOf("types.alloc_kb_per_query", "KiB", un.allocKB),
		metric{Name: "types.pool_hit_pct", Value: pct(float64(un.counts.poolHits), float64(un.counts.poolHits+un.counts.poolMisses)), Unit: "%"},
		metric{Name: "storage.view_disk_mb", Value: float64(un.footprint) / (1 << 20), Unit: "MiB"},
		metric{Name: "storage.view_disk_growth_kb", Value: float64(un.footprint-base) / 1024, Unit: "KiB"},
		metric{Name: "server.admitted", Value: float64(un.counts.admitted), Unit: "count"},
		metric{Name: "server.shed", Value: float64(un.counts.shed), Unit: "count"},
		metric{Name: "server.parallel_efficiency", Value: efficiency, Unit: "ratio"},
		metric{Name: "trace.overhead_pct", Value: pct(tracedWall-median(un.rec.sessionWalls), median(un.rec.sessionWalls)), Unit: "%", Samples: len(accs)},
	)
	for _, cat := range simclock.Categories() {
		res.Metrics = append(res.Metrics, metric{
			Name: "simclock." + strings.ToLower(cat.String()) + "_s", Unit: "s",
			Value: (un.rec.breakdown.Get(cat) / time.Duration(un.sessions)).Seconds(),
		})
	}
	return res, nil
}
