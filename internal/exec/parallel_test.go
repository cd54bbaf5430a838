package exec

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/testutil"
	"eva/internal/types"
	"eva/internal/vision"
)

// applyPlan is the canonical selective scan → apply pipeline the
// parallel engine targets: detect on every frame with id < hi.
func applyPlan(hi int64) plan.Node {
	return &plan.ReuseApply{
		Input:     scanWhere(0, -1, expr.NewCmp(expr.OpLt, colx("id"), intc(hi))),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
}

func TestParallelRunMatchesSerial(t *testing.T) {
	serial := testCtx(t, vision.MediumUADetrac)
	serial.BatchSize = 7
	want, err := Run(serial, applyPlan(40))
	if err != nil {
		t.Fatal(err)
	}

	par := testCtx(t, vision.MediumUADetrac)
	par.BatchSize = 7
	par.Workers = 8
	got, err := Run(par, applyPlan(40))
	if err != nil {
		t.Fatal(err)
	}

	if want.Len() != got.Len() {
		t.Fatalf("rows differ: serial %d, parallel %d", want.Len(), got.Len())
	}
	for r := 0; r < want.Len(); r++ {
		for c := 0; c < len(want.Schema()); c++ {
			if !types.Equal(want.At(r, c), got.At(r, c)) {
				t.Fatalf("row %d col %d differs: %v vs %v", r, c, want.At(r, c), got.At(r, c))
			}
		}
	}
	if s, p := serial.Clock.Snapshot(), par.Clock.Snapshot(); s != p {
		t.Errorf("virtual clock differs: serial %v, parallel %v", s, p)
	}
	// The second run must serve everything from the view, in parallel too.
	again, err := Run(par, applyPlan(40))
	if err != nil {
		t.Fatal(err)
	}
	stats := par.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Reused == 0 || again.Len() != want.Len() {
		t.Errorf("parallel reuse run: rows %d stats %+v", again.Len(), stats)
	}
}

func TestParallelTraceCollectsStats(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Workers = 4
	ctx.Trace = NewTrace()
	pred := expr.NewCmp(expr.OpLt, colx("id"), intc(50))
	n := &plan.Project{Input: scanWhere(0, 200, pred), Items: []plan.ProjItem{{Name: "id", E: colx("id"), Kind: types.KindInt}}}
	out, err := Run(ctx, n)
	if err != nil || out.Len() != 50 {
		t.Fatalf("rows = %d, %v", out.Len(), err)
	}
	stats := ctx.Trace.Stats()
	if len(stats) != 2 {
		t.Fatalf("want 2 traced operators, got %d", len(stats))
	}
	if stats[0].Depth != 0 || stats[1].Depth != 1 {
		t.Errorf("pre-order depths = %d, %d", stats[0].Depth, stats[1].Depth)
	}
	if stats[1].Rows != 50 || stats[1].Batches == 0 {
		t.Errorf("scan stat = %+v, want the 50 rows its Where keeps", stats[1])
	}
	if s := ctx.Trace.String(); !strings.Contains(s, "rows=50") {
		t.Errorf("trace string = %q", s)
	}
}

// TestWorkersUnpinned: 0, the default, is every core the process may
// use; with call-identity-keyed fault injection and singleflight
// FunCache accounting, workers() honors the knob in every mode — no
// configuration pins execution serial anymore.
func TestWorkersUnpinned(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Workers = 0
	if got, want := ctx.workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers() = %d, want GOMAXPROCS %d", got, want)
	}
	ctx.Workers = 1
	if got := ctx.workers(); got != 1 {
		t.Errorf("workers() at 1 = %d, want the serial engine", got)
	}
	ctx.Workers = 8
	if got := ctx.workers(); got != 8 {
		t.Errorf("workers() = %d, want 8", got)
	}
	ctx.Faults = faults.New(1)
	if got := ctx.workers(); got != 8 {
		t.Errorf("workers() with injector = %d, want 8 (faults no longer pin serial)", got)
	}
	ctx.Faults = nil
	ctx.Runtime.SetFunCache(true)
	if got := ctx.workers(); got != 8 {
		t.Errorf("workers() with FunCache = %d, want 8 (FunCache no longer pins serial)", got)
	}
}

// applyOverApply is Scan → Apply → Apply: the detector over the frames
// in [lo, hi), the scan selecting the lower bound, then CarType over
// every row it finds.
func applyOverApply(lo, hi int64) *plan.ReuseApply {
	det := &plan.ReuseApply{
		Input:     scanWhere(0, hi, expr.NewCmp(expr.OpGe, colx("id"), intc(lo))),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
	return carTypeApply(det, "ct_view", false)
}

// started reports whether the stage's producer ever ran.
func started(s *stageIter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started
}

// TestStagePlacement: at 2 workers, Scan → Filter → Apply → Apply gets
// exactly one pipeline stage, on the lower Apply's output, and it
// starts when that Apply first hands over a batch at least one scan
// batch wide. Until then — and for good on a sparse video, whose
// detector batches are all narrow — the upper Apply pulls inline.
func TestStagePlacement(t *testing.T) {
	const width = 8
	for _, tc := range []struct {
		name string
		ds   vision.Dataset
	}{{"wide", mixed}, {"narrow", vision.Jackson}} {
		t.Run(tc.name, func(t *testing.T) {
			node := applyOverApply(5, 200)
			// The detector's output widths, run alone and serially.
			serial := testCtx(t, tc.ds)
			serial.BatchSize, serial.Workers = width, 1
			det, err := build(serial, node.Input)
			if err != nil {
				t.Fatal(err)
			}
			var widths []int
			for {
				b, err := det.next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				widths = append(widths, b.Len())
			}
			firstWide := slices.IndexFunc(widths, func(n int) bool { return n >= width })
			switch {
			case tc.name == "wide" && firstWide < 1:
				t.Fatalf("detector widths %v: want narrow batches before a wide one", widths)
			case tc.name == "narrow" && firstWide >= 0:
				t.Fatalf("detector widths %v: want only narrow batches", widths)
			}

			ctx := testCtx(t, tc.ds)
			ctx.BatchSize, ctx.Workers = width, 2
			it, err := build(ctx, node)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.stopStages()
			if len(ctx.stages) != 1 {
				t.Fatalf("%d stages built, want 1", len(ctx.stages))
			}
			st := ctx.stages[0]
			if a, ok := st.in.(*applyIter); !ok || a.node != node.Input {
				t.Fatalf("the stage sits on %T, want the detector's output", st.in)
			}
			for k := range widths {
				b, err := it.next()
				if err != nil || b == nil {
					t.Fatalf("batch %d: %v, %v", k, b, err)
				}
				if want := firstWide >= 0 && k >= firstWide; started(st) != want {
					t.Fatalf("after batch %d of widths %v: stage started %v, want %v", k, widths, started(st), want)
				}
			}
			if b, err := it.next(); b != nil || err != nil {
				t.Fatalf("past the last batch: %v, %v", b, err)
			}
		})
	}
}

// TestAbortableRunsDisablePipeline: fault-injected and
// deadline-bounded runs keep the parallel apply pool but must not
// build pipeline stages — a prefetching producer would charge the
// virtual clock for batches an aborting serial run never pulls.
func TestAbortableRunsDisablePipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Context)
	}{
		{"fault injection", func(c *Context) { c.Faults = faults.New(1) }}, // no rules: inert, but present
		{"a deadline", func(c *Context) { c.Deadline = time.Hour }},
		// A prefetching producer would charge the budget for batches
		// the serial engine has not admitted yet.
		{"a memory budget", func(c *Context) { c.Budget = server.NewMemBudget(1 << 30) }},
		// Claim acquisition and per-batch publication are serial
		// protocol points.
		{"session mode", func(c *Context) { c.Sessions = true }},
		// Not abortable, but a trace's operator walls must nest.
		{"a trace", func(c *Context) { c.Trace = NewTrace() }},
		{"nothing", func(*Context) {}},
	} {
		ctx := testCtx(t, mixed)
		ctx.Workers, ctx.BatchSize = 8, 8
		tc.set(ctx)
		if out, err := Run(ctx, applyOverApply(0, 30)); err != nil || out.Len() == 0 {
			t.Fatalf("run under %s: rows = %v, %v", tc.name, out, err)
		}
		want := 0
		if tc.name == "nothing" {
			want = 1 // sanity: the same plan does stage
		}
		if len(ctx.stages) != want {
			t.Errorf("%d pipeline stages built under %s, want %d", len(ctx.stages), tc.name, want)
		}
	}
}

// TestNoGoroutineLeakOnAbort: aborted parallel runs — deadline
// exceeded mid-query and an injected permanent fault — must not leave
// worker or stage goroutines behind.
func TestNoGoroutineLeakOnAbort(t *testing.T) {
	before := runtime.NumGoroutine()

	// Deadline exceeded mid-query at Workers=8.
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Workers = 8
	ctx.BatchSize = 4
	ctx.Deadline = time.Millisecond
	if _, err := Run(ctx, applyPlan(40)); err == nil {
		t.Fatal("1ms deadline did not abort the query")
	}

	// Injected permanent fault aborts the apply operator.
	ctx2 := testCtx(t, vision.MediumUADetrac)
	ctx2.Workers = 8
	ctx2.BatchSize = 4
	inj := faults.New(3)
	inj.Rule(faults.SiteUDF(vision.FasterRCNN50), faults.Rule{Kind: faults.Permanent, Prob: 1})
	ctx2.Faults = inj
	ctx2.Runtime.SetInjector(inj)
	if _, err := Run(ctx2, applyPlan(40)); err == nil {
		t.Fatal("injected permanent fault did not surface")
	}

	// A staged run that errors mid-pipeline (teardown path).
	ctx3 := testCtx(t, vision.Jackson)
	ctx3.Workers = 8
	ctx3.BatchSize = 4
	bad := expr.NewCmp(expr.OpEq, colx("ghost"), intc(1))
	if _, err := Run(ctx3, scanWhere(0, 100, bad)); err == nil {
		t.Fatal("unknown column should error")
	}

	// Give exited goroutines a moment to be reaped before comparing.
	testutil.CheckNoGoroutineLeak(t, before)
}

// TestLimitDisablesPipeline: operators under a Limit must not run in
// background stages — the limit stops pulling mid-stream and eager
// producers would charge the clock for batches the query never asked
// for. The plan still runs correctly with the knob set.
func TestLimitDisablesPipeline(t *testing.T) {
	ctx := testCtx(t, mixed)
	ctx.Workers = 8
	ctx.BatchSize = 8
	n := &plan.Limit{Input: applyOverApply(0, 200), N: 20}
	out, err := Run(ctx, n)
	if err != nil || out.Len() != 20 {
		t.Fatalf("limit rows = %d, %v", out.Len(), err)
	}
	if len(ctx.stages) != 0 {
		t.Errorf("%d pipeline stages built under Limit, want 0", len(ctx.stages))
	}
}

// TestParallelErrorPropagation: an error raised inside a staged
// operator must surface from Run, and teardown must not deadlock.
func TestParallelErrorPropagation(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Workers = 8
	ctx.BatchSize = 4
	bad := expr.NewCmp(expr.OpEq, colx("ghost"), intc(1))
	if _, err := Run(ctx, scanWhere(0, 100, bad)); err == nil {
		t.Fatal("unknown column should error through the pipeline")
	}
	// The context must be reusable after a failed parallel run.
	good := expr.NewCmp(expr.OpLt, colx("id"), intc(5))
	out, err := Run(ctx, scanWhere(0, 100, good))
	if err != nil || out.Len() != 5 {
		t.Fatalf("rerun after failure: rows = %d, %v", out.Len(), err)
	}
}

// TestStageEarlyHalt: stopping stages while the producer still has
// batches queued (consumer abandons the stream) must not leak or hang,
// and must return every batch the producer drew to the pool.
func TestStageEarlyHalt(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Workers = 2
	ctx.BatchSize = 4
	ctx.Pool = types.NewBatchPool()
	in, err := build(ctx, scan(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	si := ctx.newStage(in)
	b, err := si.next()
	if err != nil || b == nil {
		t.Fatalf("first staged batch: %v, %v", b, err)
	}
	if !started(si) {
		t.Fatal("a scan-width batch did not start the producer")
	}
	ctx.putBatch(b)
	// Abandon the stream mid-way; teardown must return promptly.
	ctx.stopStages()
	// halt is idempotent.
	si.halt()
	if st := ctx.Pool.Stats(); st.Hits+st.Misses != st.Puts {
		t.Errorf("pool after an abandoned stage: %+v (want Hits+Misses == Puts)", st)
	}
}
