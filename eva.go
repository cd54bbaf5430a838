// Package eva is a video database management system (VDBMS) that
// accelerates exploratory video analytics by automatically
// materializing and reusing the results of expensive deep-learning
// UDFs, reproducing "EVA: A Symbolic Approach to Accelerating
// Exploratory Video Analytics with Materialized Views" (SIGMOD 2022).
//
// A System owns a catalog, a storage engine, a UDF runtime, and the
// Cascades-style optimizer with the semantic reuse algorithm. Clients
// speak EVA-QL:
//
//	sys, _ := eva.Open(eva.Config{})
//	defer sys.Close()
//	sys.Exec(`LOAD VIDEO 'medium-ua-detrac' INTO video`)
//	res, _ := sys.Exec(`SELECT id, bbox FROM video
//	    CROSS APPLY FasterRCNNResnet50(frame)
//	    WHERE id < 1000 AND label = 'car'
//	    AND CarType(frame, bbox) = 'Nissan'`)
//	fmt.Println(res.Rows.Len())
//
// Repeated and refined queries reuse the materialized UDF results of
// earlier ones; Result.Breakdown reports where the (simulated) time
// went.
package eva

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"eva/internal/baselines"
	"eva/internal/catalog"
	"eva/internal/core"
	"eva/internal/costs"
	"eva/internal/exec"
	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// Re-exported value types so callers outside this module can hold and
// inspect results without importing internal packages.
type (
	// Batch is a columnar result set.
	Batch = types.Batch
	// Schema describes result columns.
	Schema = types.Schema
	// Datum is a single scalar value.
	Datum = types.Datum
	// Breakdown is the per-category simulated-time accounting.
	Breakdown = simclock.Breakdown
	// UDFStats are per-UDF demand/reuse counters.
	UDFStats = udf.Stats
	// OptimizerReport exposes the optimizer's reuse decisions.
	OptimizerReport = optimizer.Report
	// PredInfo is the per-UDF symbolic analysis in an OptimizerReport.
	PredInfo = optimizer.PredInfo
	// ScalarFunc implements a custom scalar UDF in Go; it must be safe
	// for concurrent use (see RegisterScalarImpl).
	ScalarFunc = udf.ScalarFunc
	// Dataset describes a synthetic video dataset.
	Dataset = vision.Dataset
	// PoolStats is a snapshot of batch-pool traffic (hits, misses,
	// puts); see System.PoolStats.
	PoolStats = types.PoolStats
)

// SystemMode selects the reuse strategy — EVA or one of the paper's
// baselines (§5.1).
type SystemMode string

// System modes.
const (
	// ModeEVA is the full system: symbolic reuse, materialization-aware
	// reordering, logical UDF reuse.
	ModeEVA SystemMode = "eva"
	// ModeNoReuse disables all reuse.
	ModeNoReuse SystemMode = "noreuse"
	// ModeHashStash reimplements the HashStash baseline: operator-level
	// (sub-plan) reuse via a recycler graph — detector outputs are
	// reused, predicate-level UDFs are not, and ranking is canonical.
	ModeHashStash SystemMode = "hashstash"
	// ModeFunCache reimplements tuple-level function caching with
	// xxHash argument keys inside the execution engine.
	ModeFunCache SystemMode = "funcache"
)

// Config configures a System.
type Config struct {
	// Dir is the storage directory; empty means a fresh temporary
	// directory removed on Close.
	Dir string
	// Mode selects the reuse strategy; default ModeEVA. Open refuses any
	// other value than the four modes.
	Mode SystemMode
	// BatchSize overrides the scan batch size (frames).
	BatchSize int
	// DisableReduction turns off Algorithm 1 predicate reduction
	// (ablation studies).
	DisableReduction bool
	// CanonicalRanking forces the Eq. 2 ranking function even in EVA
	// mode (the Fig. 9 comparison).
	CanonicalRanking bool
	// MinCostLogical forces Min-Cost logical UDF binding even in EVA
	// mode (the Fig. 10 baselines).
	MinCostLogical bool
	// FuzzyReuse enables the §6 extension: scalar UDF results keyed by
	// bounding boxes are reused across detector models when boxes for
	// the same object nearly coincide. Approximate by construction.
	FuzzyReuse bool
	// QueryDeadline bounds each query's *simulated* execution time;
	// a query whose virtual-clock charges exceed the budget aborts
	// with ErrDeadlineExceeded. Zero means unlimited.
	QueryDeadline time.Duration
	// Workers sizes the parallel pipelined executor: UDF invocations
	// within a batch evaluate across a worker pool of this size, and
	// the output of each conditional Apply runs in a pipeline stage of
	// its own once it hands over a scan batch of rows. 0, the default,
	// uses runtime.GOMAXPROCS(0) workers; 1 runs the classic serial
	// engine; a negative value is refused by Open. Registered Go UDFs
	// (RegisterScalarImpl) are therefore called from several goroutines
	// at once. The default was measured end to end only at GOMAXPROCS
	// 2; whether it pays on more cores is unverified. Results, optimizer
	// reports and simulated-time totals are byte-identical at every
	// setting; only wall-clock time changes. This holds under fault
	// injection and ModeFunCache too: fault decisions are keyed by call
	// identity rather than draw order, so the injected schedule — and
	// every downstream retry, breaker trip and degradation — replays
	// identically at any worker count. Pipeline stages run only where
	// nothing can abandon or reorder the stream: the System's own
	// statements (its root session) without an injector, deadline or
	// memory budget, outside a LIMIT and EXPLAIN ANALYZE. Sessions
	// opened with NewSession, and any run with one of those, keep the
	// apply worker pool but leave the operator tree unstaged, so aborts
	// cannot charge prefetched work and shared-view claims stay serial.
	Workers int
	// MaxConcurrent bounds the number of queries executing at once
	// across the System and all of its Sessions. 0 disables admission
	// control entirely (unlimited, no queueing, no shedding).
	MaxConcurrent int
	// AdmissionQueueDepth bounds how many queries may wait for a
	// concurrency token when MaxConcurrent is saturated; a query
	// arriving to a full queue is shed immediately with ErrOverloaded.
	// 0 means shed as soon as MaxConcurrent is reached.
	AdmissionQueueDepth int
	// QueueTimeout is the *virtual-clock* wait budget of a queued
	// query: the admission clock advances by each finishing query's
	// simulated cost, and a waiter whose budget elapses is shed with
	// ErrQueueTimeout. 0 means queued queries time out at the next
	// query completion.
	QueueTimeout time.Duration
	// MemoryBudget caps each query's estimated materialized bytes
	// (scan batches in flight, sort buffers, view-append staging). The
	// executor degrades first — halves scan batches, flushes view
	// staging early — and aborts with ErrMemoryBudget only when the
	// floor still does not fit. 0 means unlimited.
	MemoryBudget int64
	// DisablePooling turns off the pooled columnar batch lifecycle
	// (DESIGN.md §13): every operator allocates fresh batches instead
	// of recycling them through the engine's BatchPool. Results are
	// byte-identical either way; the knob exists for the differential
	// suite and for allocation-profiling comparisons.
	DisablePooling bool
	// ScrubInterval enables periodic view scrubbing (DESIGN.md §15)
	// with this *virtual-time* cadence: whenever at least this much
	// simulated time has elapsed since the last pass, the next
	// statement completion runs a full checksum re-verification of
	// every materialized view (quarantining corrupt records for
	// symbolic repair) before it returns. While another admitted
	// statement is still running the cadence degrades (doubles,
	// bounded at 8×) instead of waiting for it. 0 disables scrubbing;
	// System.Scrub always works.
	ScrubInterval time.Duration
	// DiskBudgetBytes caps the total on-disk bytes of every durable
	// artifact — view logs, ingest watermark and checkpoint logs
	// (DESIGN.md §16). When an append does not fit, the
	// engine degrades along the reclaim ladder (compact fragmented
	// logs, then evict whole cold views, lowest benefit first) and
	// retries; only when nothing evictable remains does the query fail
	// with ErrDiskBudget. Evicted views re-materialize automatically
	// through the ordinary optimizer path on the next query that needs
	// them. 0 means unlimited (usage still tracked; see StorageStats).
	DiskBudgetBytes int64
	// EvictInterval enables periodic high-water eviction with this
	// *virtual-time* cadence, due and degraded like ScrubInterval:
	// whenever the disk budget sits above its high-water mark (90%),
	// the next due pass reclaims down to 70%, smoothing disk pressure
	// out of the append hot path. 0 disables periodic eviction; the
	// synchronous evict-retry path still runs.
	EvictInterval time.Duration
}

// ErrDeadlineExceeded is returned (wrapped) by Exec when a query
// exhausts Config.QueryDeadline; test with errors.Is.
var ErrDeadlineExceeded = exec.ErrDeadlineExceeded

// Typed serving-layer errors; test with errors.Is.
var (
	// ErrClosed is returned by Exec on a closed System or Session.
	ErrClosed = errors.New("eva: system closed")
	// ErrOverloaded is returned when the admission queue is full: the
	// query was shed immediately, nothing executed.
	ErrOverloaded = server.ErrOverloaded
	// ErrQueueTimeout is returned when a queued query's virtual-clock
	// wait budget elapsed before a concurrency token freed up.
	ErrQueueTimeout = server.ErrQueueTimeout
	// ErrMemoryBudget is returned (wrapped) when a query exceeds
	// Config.MemoryBudget even after degradation.
	ErrMemoryBudget = server.ErrMemoryBudget
	// ErrDiskBudget is returned (wrapped) when a durable write exceeds
	// Config.DiskBudgetBytes even after the eviction ladder ran dry.
	ErrDiskBudget = storage.ErrDiskBudget
)

// AdmissionStats is a snapshot of admission-control outcomes:
// admitted/shed counts and virtual queue-wait percentiles.
type AdmissionStats = server.Stats

// Result is the outcome of executing one statement.
type Result struct {
	// Rows holds the result rows (possibly empty for DDL).
	Rows *Batch
	// PlanText is the physical plan, for EXPLAIN-style inspection.
	PlanText string
	// Report is the optimizer's reuse analysis for SELECTs.
	Report OptimizerReport
	// Breakdown is the simulated time spent by this statement.
	Breakdown Breakdown
	// SimTime is Breakdown.Total().
	SimTime time.Duration
	// WallTime is the real execution time.
	WallTime time.Duration
}

// System is an EVA instance: the public facade over the semantic reuse
// engine of internal/core. One System serves any number of concurrent
// Sessions (see NewSession); its own Exec methods run in its root
// session, and every session passes the same admission controller.
type System struct {
	cfg     Config
	tempDir string

	eng   *core.Engine
	store *storage.Engine
	ctl   *server.Controller // nil when admission control is off
	// root is the session System.Exec runs in: the runtime's default
	// domain, which charges the engine's own clock and holds the
	// engine-wide injector.
	root *Session
	// maintMu orders the statement epilogue's due checks (maintain).
	maintMu sync.Mutex
	// scrub is the view-verification cadence (Config.ScrubInterval).
	// guarded by maintMu.
	scrub storage.Cadence
	// evict is the high-water reclaim cadence (Config.EvictInterval).
	// guarded by maintMu.
	evict storage.Cadence

	// qmu is the lifecycle lock: every executing statement holds it
	// for reading, Close takes it for writing to drain in-flight
	// queries before tearing state down.
	qmu sync.RWMutex
	// closed flips once; statements arriving after see ErrClosed.
	// guarded by qmu.
	closed bool

	closeOnce sync.Once
	closeErr  error

	recMu sync.Mutex
	// rec is the HashStash recycler graph, swapped on DropViews.
	// guarded by recMu.
	rec *baselines.Recycler

	smu sync.Mutex
	// streams tracks live ingest streams so Close drains them before
	// tearing storage down. guarded by smu.
	streams []*Stream
	// streamsClosed flips when Close has taken the stream list; a later
	// OpenStream fails with ErrClosed. guarded by smu.
	streamsClosed bool

	repairMu sync.Mutex
	// repairs holds the pending symbolic repair task per quarantined
	// view, queued by scrub detections and drained by System.Repair.
	// guarded by repairMu.
	repairs map[string]repairTask
}

// Internal accessors keeping the method bodies readable.
func (s *System) cat() *catalog.Catalog  { return s.eng.Catalog }
func (s *System) rt() *udf.Runtime       { return s.eng.Runtime }
func (s *System) mgr() *udf.Manager      { return s.eng.Manager }
func (s *System) clock() *simclock.Clock { return s.eng.Clock }

// Open creates a System.
func Open(cfg Config) (*System, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("eva: Workers %d is negative (0 uses every core, 1 runs serially)", cfg.Workers)
	}
	switch cfg.Mode {
	case "":
		cfg.Mode = ModeEVA
	case ModeEVA, ModeNoReuse, ModeHashStash, ModeFunCache:
	default:
		return nil, fmt.Errorf("eva: unknown Mode %q (want %s, %s, %s or %s)", cfg.Mode, ModeEVA, ModeNoReuse, ModeHashStash, ModeFunCache)
	}
	dir := cfg.Dir
	temp := ""
	if dir == "" {
		d, err := os.MkdirTemp("", "eva-*")
		if err != nil {
			return nil, err
		}
		dir, temp = d, d
	}
	store, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	eng := core.New(store, cfg.BatchSize)
	eng.Runtime.SetFunCache(cfg.Mode == ModeFunCache)
	eng.Deadline = cfg.QueryDeadline
	eng.MemoryBudget = cfg.MemoryBudget
	eng.Workers = cfg.Workers
	if !cfg.DisablePooling {
		eng.Pool = types.NewBatchPool()
	}
	s := &System{
		cfg: cfg, tempDir: temp,
		eng:   eng,
		store: store,
		rec:   baselines.NewRecycler(),
	}
	s.root = &Session{sys: s, domain: eng.Runtime.DefaultDomain()}
	eng.Manager.OnLost(s.predicateLost)
	if cfg.DiskBudgetBytes > 0 {
		store.SetBudget(storage.NewDiskBudget(cfg.DiskBudgetBytes))
	}
	// The eviction policy is installed unconditionally: injected
	// disk:full faults drive the reclaim ladder even without a budget,
	// and the upcall must retract the evicted view's predicate either
	// way.
	store.SetEvictPolicy(s.benefitRank, s.viewEvicted)
	store.SetRetryCharge(func(attempt int) {
		s.clock().Charge(simclock.CatRetry, costs.RetryBackoff(attempt))
	})
	if cfg.MaxConcurrent > 0 {
		s.ctl = server.NewController(server.Config{
			MaxConcurrent: cfg.MaxConcurrent,
			QueueDepth:    cfg.AdmissionQueueDepth,
			QueueTimeout:  cfg.QueueTimeout,
		})
	}
	// Both cadences anchor their first deadline here, at Open; the
	// statement epilogue (maintain) runs their passes.
	s.scrub = storage.NewCadence(cfg.ScrubInterval, s.clock().Total())
	s.evict = storage.NewCadence(cfg.EvictInterval, s.clock().Total())
	return s, nil
}

// Close drains and closes the System's streams, drains in-flight
// queries, closes the storage engine, and removes the storage directory
// when it was temporary. Idempotent and safe to call concurrently with
// executing statements: statements that begin before or while the
// streams drain complete normally, and once the streams are closed,
// statements and OpenStream calls fail with ErrClosed.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		// Streams close while the System is still open: their queued
		// deltas are statements and run to completion like any other.
		err := s.closeStreams()
		s.markClosed()
		if serr := s.store.Close(); err == nil {
			err = serr
		}
		if s.tempDir != "" {
			if rerr := os.RemoveAll(s.tempDir); err == nil {
				err = rerr
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

// markClosed waits for every in-flight statement (they hold qmu for
// reading) and flips the closed flag.
func (s *System) markClosed() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.closed = true
}

// optimizerMode maps the system mode onto optimizer knobs.
func (s *System) optimizerMode() optimizer.Mode {
	var m optimizer.Mode
	switch s.cfg.Mode {
	case ModeEVA:
		m = optimizer.EVAMode()
	case ModeHashStash:
		m = optimizer.Mode{Reuse: true, ReuseScalarUDFs: false, Ranking: optimizer.RankCanonical, Logical: optimizer.LogicalMinCost}
	case ModeFunCache, ModeNoReuse:
		m = optimizer.NoReuseMode()
	}
	m.DisableReduction = s.cfg.DisableReduction
	m.FuzzyBBox = s.cfg.FuzzyReuse
	if s.cfg.CanonicalRanking {
		m.Ranking = optimizer.RankCanonical
	}
	if s.cfg.MinCostLogical {
		m.Logical = optimizer.LogicalMinCost
		if s.cfg.Mode == ModeNoReuse {
			m.Logical = optimizer.LogicalMinCostNoReuse
		}
	}
	return m
}

// ViewRows reports the number of materialized result rows per view —
// the convergence metric of Fig. 8(b). The snapshot is taken under one
// engine lock, so it is safe (and consistent in its name set) against
// queries creating views concurrently.
func (s *System) ViewRows() map[string]int {
	return s.store.ViewRowCounts()
}

// AdmissionStats snapshots the admission controller's outcomes. Zero
// when admission control is off.
func (s *System) AdmissionStats() AdmissionStats {
	return s.ctl.Stats()
}

// Exec parses and executes one EVA-QL statement in the root session.
func (s *System) Exec(sql string) (*Result, error) { return s.root.Exec(sql) }

// ExecScript executes a semicolon-separated script in the root
// session, returning the last statement's result.
func (s *System) ExecScript(sql string) (*Result, error) { return s.root.ExecScript(sql) }

// ExecStmt executes one parsed statement in the root session; see
// Session.ExecStmt.
func (s *System) ExecStmt(stmt parser.Statement) (*Result, error) { return s.root.ExecStmt(stmt) }

func recyclerKey(table, udfName string) string {
	return "apply:" + strings.ToLower(udfName) + "@scan:" + table
}

// recCovered, recAdd and recReset guard the HashStash recycler, which
// DropViews swaps out from under concurrent queries.
func (s *System) recCovered(key string, lo, hi int64) bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.rec.Covered(key, lo, hi)
}

func (s *System) recAdd(key string, lo, hi int64) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.rec.Add(key, lo, hi)
}

func (s *System) recReset() {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.rec = baselines.NewRecycler()
}

// DropViews discards all materialized UDF results and resets the
// aggregated predicates — a clean reuse slate.
func (s *System) DropViews() error {
	if err := s.store.DropViews(); err != nil {
		return err
	}
	s.mgr().Reset()
	s.recReset()
	return nil
}

// LoadVideo registers a built-in synthetic dataset as a video table.
func (s *System) LoadVideo(table, dataset string) error {
	ds, err := vision.DatasetByName(dataset)
	if err != nil {
		return err
	}
	return s.LoadDataset(table, ds)
}

// LoadDataset registers an arbitrary dataset descriptor as a table.
func (s *System) LoadDataset(table string, ds vision.Dataset) error {
	// The catalog learns the table only once storage holds it, so a
	// failed load leaves nothing half-registered.
	if _, err := s.store.CreateVideo(table, ds); err != nil {
		return err
	}
	_, err := s.cat().RegisterVideo(table, ds)
	return err
}

// createUDF registers a UDF from a CREATE UDF statement (Listing 2).
func (s *System) createUDF(st *parser.CreateUDFStmt) error {
	if s.cat().HasUDF(st.Name) && !st.OrReplace {
		return fmt.Errorf("eva: UDF %q already exists (use CREATE OR REPLACE)", st.Name)
	}
	var outs types.Schema
	for _, c := range st.Outputs {
		outs = append(outs, types.Column{Name: c.Name, Kind: c.Kind})
	}
	var inputs []string
	for _, c := range st.Inputs {
		inputs = append(inputs, c.Name)
	}
	acc := vision.AccuracyHigh
	if a, ok := st.Properties["ACCURACY"]; ok {
		lvl, err := vision.ParseAccuracy(a)
		if err != nil {
			return err
		}
		acc = lvl
	}
	cost := 10 * time.Millisecond
	if c, ok := st.Properties["COST_MS"]; ok {
		var ms float64
		if _, err := fmt.Sscanf(c, "%f", &ms); err != nil {
			return fmt.Errorf("eva: bad COST_MS %q", c)
		}
		cost = time.Duration(ms * float64(time.Millisecond))
	}
	logical := st.LogicalType
	if logical == "" {
		logical = st.Name
	}
	kind := catalog.KindScalarUDF
	if len(outs) > 1 {
		kind = catalog.KindTableUDF
	}
	return s.cat().RegisterUDF(&catalog.UDF{
		Name: st.Name, Kind: kind, LogicalType: logical, Accuracy: acc,
		Cost: cost, Inputs: inputs, Outputs: outs, Impl: st.Impl,
		Expensive: cost >= 500*time.Microsecond,
	})
}

func (s *System) execShow(st *parser.ShowStmt) (*Result, error) {
	sch := types.MustSchema(types.Column{Name: "name", Kind: types.KindString})
	b := types.NewBatch(sch)
	switch st.What {
	case "TABLES":
		for _, n := range s.cat().Tables() {
			b.MustAppendRow(types.NewString(n))
		}
	case "VIEWS":
		for _, n := range s.store.Views() {
			b.MustAppendRow(types.NewString(n))
		}
	case "UDFS":
		for _, n := range []string{vision.YoloTiny, vision.FasterRCNN50, vision.FasterRCNN101, "CarType", "ColorDet", "License", "VehicleFilter", "Area"} {
			if s.cat().HasUDF(n) {
				b.MustAppendRow(types.NewString(n))
			}
		}
	default:
		return nil, fmt.Errorf("eva: SHOW %s not supported (TABLES, VIEWS, UDFS)", st.What)
	}
	return &Result{Rows: b}, nil
}

// RegisterScalarImpl installs a Go implementation for a CREATE'd UDF.
// The executor evaluates a batch's calls across Config.Workers
// goroutines, so fn may run concurrently with itself and must be safe
// for concurrent use.
func (s *System) RegisterScalarImpl(name string, fn ScalarFunc) {
	s.rt().RegisterImpl(name, fn)
}

// injectFaults installs a deterministic fault injector across the
// engine's fault sites — UDF evaluation, view-log writes, and the
// executor's deadline checks (nil disables injection). The resilience
// tests use it; see internal/faults.
func (s *System) injectFaults(inj *faults.Injector) { s.eng.SetFaults(inj) }

// EvalScalarUDF evaluates a scalar UDF directly (outside any query),
// charging its profiled cost. Custom UDF implementations may use it to
// compose builtin models; it is safe for concurrent use.
func (s *System) EvalScalarUDF(name string, args []Datum) (Datum, error) {
	return s.rt().EvalScalar(name, args)
}

// Datum constructors re-exported for custom UDF implementations.
var (
	// NewBool wraps a boolean datum.
	NewBool = types.NewBool
	// NewInt wraps an integer datum.
	NewInt = types.NewInt
	// NewFloat wraps a float datum.
	NewFloat = types.NewFloat
	// NewString wraps a string datum.
	NewString = types.NewString
	// NewBytes wraps a byte-slice datum.
	NewBytes = types.NewBytes
)

// Recycle returns a Result's row batch to the engine's batch pool once
// the caller is done reading it. Optional: callers that skip it leave
// the batch to the garbage collector, which is always safe. After
// Recycle the batch must not be read again.
func (s *System) Recycle(b *Batch) { s.eng.Recycle(b) }

// PoolStats snapshots the engine's batch-pool counters. Zero when
// pooling is disabled.
func (s *System) PoolStats() PoolStats {
	if s.eng.Pool == nil {
		return PoolStats{}
	}
	return s.eng.Pool.Stats()
}

// HitPercentage returns Table 2's metric for the work so far.
func (s *System) HitPercentage() float64 { return s.rt().HitPercentage() }

// UDFCounters returns per-UDF demand/reuse statistics (Table 3).
func (s *System) UDFCounters() map[string]UDFStats { return s.rt().CounterSnapshot() }

// ViewFootprint returns the total on-disk bytes of materialized views
// (§5.2 storage overhead).
func (s *System) ViewFootprint() int64 { return s.store.TotalViewFootprint() }

// DatasetVirtualBytes returns the simulated decoded size of a loaded
// video table.
func (s *System) DatasetVirtualBytes(table string) (int64, error) {
	v, err := s.store.Video(table)
	if err != nil {
		return 0, err
	}
	return v.VirtualBytes(), nil
}

// SimulatedTime returns the total simulated time charged so far.
func (s *System) SimulatedTime() time.Duration { return s.clock().Total() }

// SimulatedBreakdown returns the per-category simulated time so far.
func (s *System) SimulatedBreakdown() Breakdown {
	return s.clock().Since(simclock.Snapshot{})
}

// ResetMetrics clears counters and the clock but keeps materialized
// state (used between measurement phases). It waits out in-flight
// queries, so the clock and the UDF counters reset as one atomic
// point — a reset can never land between a query's clock charges and
// its counter updates.
func (s *System) ResetMetrics() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.clock().Reset()
	s.rt().ResetCounters()
}

// Format renders a result batch as an aligned table.
func Format(b *Batch) string { return exec.FormatBatch(b) }

// Datasets lists the built-in dataset names.
func Datasets() []string {
	var out []string
	for n := range vision.Datasets() {
		out = append(out, n)
	}
	return out
}
