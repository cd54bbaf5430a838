package eva

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/testutil"
)

// The multi-client chaos matrix is the serving layer's executable
// contract: N concurrent sessions — each with its own virtual clock,
// circuit breakers and deterministic fault schedule — run every
// testdata script against one shared System, and every session's
// digest (rows, errors, optimizer reports, per-statement breakdowns,
// fault event log) must byte-match the same session run alone on a
// fresh System. The shared view store must end up holding exactly the
// union of the solo runs' materialized rows: nothing lost, nothing
// computed twice.

// serverChaosSessions is how many concurrent sessions each matrix cell
// runs. Sessions use disjoint tables (video_s0, video_s1, ...), so
// table-qualified UDF signatures keep their views disjoint and every
// per-session observable is deterministic.
const serverChaosSessions = 3

var sessionTableRe = regexp.MustCompile(`\bvideo\b`)

// runSession runs the script as session k of sys: on its private table,
// under its own schedule (the cell's, reseeded per session), digesting
// every statement in full, the session's virtual time and its fault log.
func runSession(t *testing.T, sys *System, src string, sched schedule, k int) string {
	sess := sys.NewSession()
	inj := schedule{sched.regime, sched.seed + uint64(k)*31}.injector()
	sess.InjectFaults(inj)
	out, _ := runStatements(t, sess, sessionTableRe.ReplaceAllString(src, fmt.Sprintf("video_s%d", k)), everything)
	return out + fmt.Sprintf("session simtime: %d\n", sess.SimulatedTime()) + faultsDigest(inj)
}

// TestMultiSessionChaosMatrix: every script × 8 seeded fault schedules ×
// Workers {1, 2, 8}, with serverChaosSessions concurrent sessions per
// cell. Each session's digest must byte-match its solo run at Workers=1
// on a fresh System (proving both session isolation and worker-count
// invariance at once), and the shared store must hold exactly the union
// of the solo runs' view rows.
func TestMultiSessionChaosMatrix(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	injected := injections{}
	eachScript(t, func(t *testing.T, sc script) {
		for seed := uint64(1); seed <= seeds; seed++ {
			s := seeded(seed)
			t.Run(s.name(), func(t *testing.T) {
				solo := make([]string, serverChaosSessions)
				wantViews := map[string]int{}
				for k := range solo {
					sys := openAt(t, Config{Workers: 1})
					solo[k] = runSession(t, sys, sc.src, s, k)
					injected[s.regime] += faultsIn(solo[k])
					for v, n := range sys.ViewRows() {
						if _, dup := wantViews[v]; dup {
							t.Fatalf("session %d view %s collides with another session's", k, v)
						}
						wantViews[v] = n
					}
					sys.Close()
				}
				for _, w := range []int{1, 2, 8} {
					sys := openAt(t, Config{Workers: w})
					digests := make([]string, serverChaosSessions)
					var wg sync.WaitGroup
					for k := range digests {
						wg.Add(1)
						go func() {
							defer wg.Done()
							digests[k] = runSession(t, sys, sc.src, s, k)
						}()
					}
					wg.Wait()
					for k, got := range digests {
						same(t, fmt.Sprintf("workers=%d session %d against its solo run", w, k), solo[k], got)
					}
					same(t, fmt.Sprintf("workers=%d views against the solo runs' union", w),
						sortedLines("view", wantViews), sortedLines("view", sys.ViewRows()))
					sys.Close()
				}
			})
		}
	})
	injected.requireEach(t)
}

// TestSharedViewSingleflight: several sessions race the same cold
// query on the same table. The per-(view, key) claims protocol must
// ensure each distinct UDF invocation is evaluated exactly once
// system-wide — the racing sessions wait and reuse instead of
// recomputing — and every session sees the identical result.
func TestSharedViewSingleflight(t *testing.T) {
	const q = `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`

	// Solo baseline: evaluation count and result of one cold run.
	base := openLoaded(t, Config{})
	bres, err := base.NewSession().Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	want := Format(bres.Rows)
	wantEval := base.UDFCounters()["fasterrcnnresnet50"].Evaluated
	if wantEval == 0 {
		t.Fatal("baseline evaluated nothing")
	}

	sys := openLoaded(t, Config{})
	const clients = 4
	results := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.NewSession().Exec(q)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = Format(res.Rows)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("client %d result diverged from the solo run", i)
		}
	}
	got := sys.UDFCounters()["fasterrcnnresnet50"]
	if got.Evaluated != wantEval {
		t.Errorf("%d clients evaluated %d invocations, solo run evaluated %d — double compute",
			clients, got.Evaluated, wantEval)
	}
	if got.Reused == 0 {
		t.Error("racing clients recorded no reuse")
	}
	for v, n := range base.ViewRows() {
		if m := sys.ViewRows()[v]; m != n {
			t.Errorf("view %s: %d rows after race, solo run has %d", v, m, n)
		}
	}
}

// blockingUDF registers a custom scalar UDF whose first evaluation
// signals `started` and then blocks until `release` is closed; later
// evaluations pass straight through. It gives admission tests a query
// that deterministically holds its concurrency token.
func blockingUDF(t *testing.T, sys *System) (started, release chan struct{}) {
	t.Helper()
	if _, err := sys.Exec(`CREATE UDF Gate
		INPUT = (frame BYTES, bbox TEXT) OUTPUT = (gate_out BOOLEAN)
		IMPL = 'test' PROPERTIES = ('COST_MS' = '3')`); err != nil {
		t.Fatal(err)
	}
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	sys.RegisterScalarImpl("Gate", func(args []Datum) (Datum, error) {
		once.Do(func() { close(started) })
		<-release
		return NewBool(true), nil
	})
	return started, release
}

const gateQuery = `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
	WHERE id < 40 AND label = 'car' AND Gate(frame, bbox) = TRUE`

// TestAdmissionOverloadTyped: with one concurrency token and no queue,
// a query arriving while another runs is shed immediately with the
// typed ErrOverloaded — nothing executes, and the stats record the
// shed.
func TestAdmissionOverloadTyped(t *testing.T) {
	sys := openLoaded(t, Config{MaxConcurrent: 1})
	started, release := blockingUDF(t, sys)

	done := make(chan error, 1)
	go func() {
		_, err := sys.NewSession().Exec(gateQuery)
		done <- err
	}()
	<-started

	if _, err := sys.NewSession().Exec(`SELECT id FROM video WHERE id < 5`); !errors.Is(err, ErrOverloaded) {
		t.Errorf("saturated exec error = %v, want ErrOverloaded", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("gated query: %v", err)
	}
	st := sys.AdmissionStats()
	if st.ShedOverload != 1 || st.Admitted == 0 {
		t.Errorf("stats = %+v, want 1 overload shed and >0 admitted", st)
	}
}

// TestAdmissionQueueTimeoutTyped: a queued query whose virtual-clock
// wait budget elapses before a token frees is shed with the typed
// ErrQueueTimeout when the running query completes and advances the
// admission clock past its deadline. The holder releases its grant
// with its simulated cost whatever kind of statement it is — an
// EXPLAIN ANALYZE executes in the session too. (Regression: a
// session's EXPLAIN ANALYZE released with cost 0.)
func TestAdmissionQueueTimeoutTyped(t *testing.T) {
	for _, holding := range []string{gateQuery, "EXPLAIN ANALYZE " + gateQuery} {
		sys := openLoaded(t, Config{MaxConcurrent: 1, AdmissionQueueDepth: 1, QueueTimeout: time.Nanosecond})
		started, release := blockingUDF(t, sys)

		holder := make(chan error, 1)
		go func() {
			_, err := sys.NewSession().Exec(holding)
			holder <- err
		}()
		<-started

		queued := make(chan error, 1)
		go func() {
			_, err := sys.NewSession().Exec(`SELECT id FROM video WHERE id < 5`)
			queued <- err
		}()
		// Release the token only after the second query is demonstrably
		// queued; its 1ns virtual budget then expires on the holder's
		// release, which charges the gated query's simulated cost.
		for sys.AdmissionStats().Queued == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)

		if err := <-holder; err != nil {
			t.Fatalf("gated query: %v", err)
		}
		if err := <-queued; !errors.Is(err, ErrQueueTimeout) {
			t.Errorf("holder %.15q: queued exec error = %v, want ErrQueueTimeout", holding, err)
		}
		if st := sys.AdmissionStats(); st.ShedTimeout != 1 {
			t.Errorf("holder %.15q: stats = %+v, want 1 timeout shed", holding, st)
		}
	}
}

// TestSessionExplainAnalyze: EXPLAIN ANALYZE executes in the session
// that issued it, like the SELECT it wraps — charged to the session's
// clock (and folded into the System's exactly once), evaluated through
// the session's domain, faulted by the session's schedule and no one
// else's. (Regression: it fell through to the System's handler, which
// reported SimTime 0, charged the global clock directly and drew from
// the engine-wide injector.)
func TestSessionExplainAnalyze(t *testing.T) {
	sys := openLoaded(t, Config{})
	sysInj := faults.New(7)
	sysInj.Rule(faults.SiteUDFAny, faults.Rule{Kind: faults.Transient, Prob: 1})
	sys.InjectFaults(sysInj)
	const q = `EXPLAIN ANALYZE SELECT id, label FROM video
		CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`

	quiet, flaky := sys.NewSession(), sys.NewSession()
	flakyInj := faults.New(11)
	flakyInj.Rule(faults.SiteUDFAny, faults.Rule{Kind: faults.Transient, Prob: 0.3})
	flaky.InjectFaults(flakyInj)
	for _, c := range []struct {
		name  string
		sess  *Session
		retry bool
	}{{"quiet", quiet, false}, {"flaky", flaky, true}} {
		if err := sys.DropViews(); err != nil {
			t.Fatal(err)
		}
		sessBefore, sysBefore := c.sess.SimulatedTime(), sys.SimulatedTime()
		res, err := c.sess.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(res.PlanText, "rows=") {
			t.Errorf("%s: no per-operator statistics in %q", c.name, res.PlanText)
		}
		if res.SimTime <= 0 {
			t.Errorf("%s: SimTime = %v", c.name, res.SimTime)
		}
		if got := c.sess.SimulatedTime() - sessBefore; got != res.SimTime {
			t.Errorf("%s: session clock grew %v, SimTime %v", c.name, got, res.SimTime)
		}
		if got := sys.SimulatedTime() - sysBefore; got != res.SimTime {
			t.Errorf("%s: system clock grew %v, SimTime %v", c.name, got, res.SimTime)
		}
		if got := res.Breakdown[simclock.CatRetry] > 0; got != c.retry {
			t.Errorf("%s: retry time %v, want >0 = %v", c.name, res.Breakdown[simclock.CatRetry], c.retry)
		}
	}
	if n := sysInj.Injected(); n != 0 {
		t.Errorf("system-level schedule injected %d faults into session statements", n)
	}
	if flakyInj.Injected() == 0 {
		t.Error("session schedule injected nothing")
	}
}

// TestMemoryBudgetTyped: an impossible budget aborts with the typed
// ErrMemoryBudget; a finite but workable budget degrades instead and
// returns exactly the unlimited run's rows. Both the System path and
// the Session path enforce the budget.
func TestMemoryBudgetTyped(t *testing.T) {
	const q = `SELECT id, seconds FROM video WHERE id < 200`

	free := openLoaded(t, Config{})
	want, err := free.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	tiny := openLoaded(t, Config{MemoryBudget: 1})
	if _, err := tiny.Exec(q); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("System exec error = %v, want ErrMemoryBudget", err)
	}
	if _, err := tiny.NewSession().Exec(q); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("Session exec error = %v, want ErrMemoryBudget", err)
	}

	// 1 MiB forces scan batches to shrink well below the default width
	// for frame columns but sits far above the 16-row floor: the query
	// degrades and completes bit-identically.
	small := openLoaded(t, Config{MemoryBudget: 1 << 20})
	res, err := small.NewSession().Exec(q)
	if err != nil {
		t.Fatalf("workable budget aborted: %v", err)
	}
	if Format(res.Rows) != Format(want.Rows) {
		t.Error("degraded run's rows diverge from the unlimited run")
	}
}

// TestCloseAfterPanickingStatement: a statement whose UDF implementation
// panics, on the serial engine so that the panic reaches the caller,
// hands back the statement lock and its admission token on the way out —
// a second statement is admitted under one token, and Close returns
// within five seconds instead of waiting forever.
func TestCloseAfterPanickingStatement(t *testing.T) {
	sys := openLoaded(t, Config{Workers: 1, MaxConcurrent: 1})
	if _, err := sys.Exec(`CREATE UDF Gate
		INPUT = (frame BYTES, bbox TEXT) OUTPUT = (gate_out BOOLEAN)
		IMPL = 'test' PROPERTIES = ('COST_MS' = '3')`); err != nil {
		t.Fatal(err)
	}
	sys.RegisterScalarImpl("Gate", func([]Datum) (Datum, error) { panic("gate implementation failed") })
	for _, exec := range []func(string) (*Result, error){sys.Exec, sys.NewSession().Exec} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the statement did not panic")
				}
			}()
			_, _ = exec(gateQuery)
		}()
	}
	if _, err := sys.NewSession().Exec(`SELECT id FROM video WHERE id < 5`); err != nil {
		t.Errorf("a statement after the panics: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- sys.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waits 5 s after a statement panicked")
	}
}

// TestCloseDrainsInFlight: Close must wait for in-flight statements,
// succeed idempotently, reject later statements from the System and
// from Sessions with ErrClosed, and leave no goroutines behind.
func TestCloseDrainsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := openLoaded(t, Config{})
	started, release := blockingUDF(t, sys)

	inflight := make(chan error, 1)
	go func() {
		_, err := sys.NewSession().Exec(gateQuery)
		inflight <- err
	}()
	<-started

	closed := make(chan error, 1)
	go func() { closed <- sys.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a query in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight query failed during Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := sys.Exec(`SELECT id FROM video WHERE id < 5`); !errors.Is(err, ErrClosed) {
		t.Errorf("System exec after Close = %v, want ErrClosed", err)
	}
	if _, err := sys.NewSession().Exec(`SELECT id FROM video WHERE id < 5`); !errors.Is(err, ErrClosed) {
		t.Errorf("Session exec after Close = %v, want ErrClosed", err)
	}
	sess := sys.NewSession()
	if err := sess.Close(); err != nil {
		t.Errorf("session Close: %v", err)
	}
	if _, err := sess.Exec(`SELECT id FROM video WHERE id < 5`); !errors.Is(err, ErrClosed) {
		t.Errorf("exec on closed Session = %v, want ErrClosed", err)
	}
	testutil.CheckNoGoroutineLeak(t, before)
}

// TestMisalignedSessionsSharedView races sessions whose scan batches
// are offset from each other by 100 frames over one cold view, so a
// session's flush regularly lands between another session's probes of
// the same batch. Every probe must pair the row indexes it returns
// with the view snapshot they refer to: each session's rows must equal
// the solo run and no invocation may be evaluated twice.
func TestMisalignedSessionsSharedView(t *testing.T) {
	queries := []string{
		`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 4000`,
		`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= 100 AND id < 4000`,
	}
	base := openLoaded(t, Config{})
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := base.NewSession().Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Format(res.Rows)
	}
	wantEval := base.UDFCounters()["fasterrcnnresnet50"].Evaluated

	for iter := 0; iter < 4; iter++ {
		sys := openLoaded(t, Config{})
		const clients = 4
		results := make([]string, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := sys.NewSession().Exec(queries[i%len(queries)])
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = Format(res.Rows)
			}(i)
		}
		wg.Wait()
		for i := 0; i < clients; i++ {
			if errs[i] != nil {
				t.Fatalf("iteration %d client %d: %v", iter, i, errs[i])
			}
			if results[i] != want[i%len(queries)] {
				t.Errorf("iteration %d client %d: rows diverged from the solo run", iter, i)
			}
		}
		if got := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated; got != wantEval {
			t.Errorf("iteration %d: %d clients evaluated %d invocations, solo runs evaluated %d — double compute",
				iter, clients, got, wantEval)
		}
	}
}
