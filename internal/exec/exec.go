// Package exec is EVA's execution engine: a batch-at-a-time Volcano
// interpreter over the physical plans of internal/plan. Every operator
// charges its profiled cost to the virtual clock, so a plan execution
// yields both results and the simulated time breakdown the evaluation
// reports (Table 4, Fig. 6).
package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// DefaultBatchSize is the number of frames per scan batch.
const DefaultBatchSize = 256

// Context carries the runtime services a plan execution needs.
type Context struct {
	Store     *storage.Engine
	Runtime   *udf.Runtime
	Clock     *simclock.Clock
	BatchSize int
	// Trace, when set, collects per-operator statistics for this
	// execution (EXPLAIN ANALYZE). Attach a fresh Trace per Run.
	Trace *Trace
	// Faults is the running session's injector, consulted at the
	// executor's fault sites (faults.SiteDeadline) and by every view
	// append; nil injects nothing.
	Faults *faults.Injector
	// Deadline is the virtual-time budget for one Run (0 = unlimited).
	// The budget starts when Run is called and is checked before every
	// operator's next, so an expired query stops within one batch.
	Deadline time.Duration
	// Workers sizes the parallel pipelined engine: UDF invocations
	// fan out across a bounded pool of this size and each conditional
	// Apply's output is decoupled from its consumer behind a bounded
	// channel (see parallel.go). 0 means runtime.GOMAXPROCS(0); 1 runs
	// the classic serial engine. Results, reports and virtual clock
	// totals are byte-identical at every setting.
	Workers int
	// Domain is the running session's UDF evaluation domain: UDF
	// evaluation, UDF fault draws and breaker state all go through it.
	// Required (the root session's is Runtime.DefaultDomain()).
	Domain *udf.Domain
	// Budget is this query's memory budget, charged at the
	// materialization points (scan batches, sort buffers, view-append
	// staging). A failed charge degrades first — smaller scan batches,
	// early view flushes — and aborts with server.ErrMemoryBudget only
	// when degradation cannot fit the limit. nil = unlimited.
	Budget *server.MemBudget
	// Sessions enables shared-view multi-session mode: the apply
	// operator probes its own store view, claims per-(view, key)
	// singleflight ownership of the keys it is about to evaluate, and
	// publishes (flushes) at every batch boundary so concurrent
	// sessions reuse instead of recompute. Off for the system's root
	// session, which runs exclusively and keeps its pipeline stages.
	Sessions bool
	// Pool, when set, supplies the columnar batches the operators flow
	// between each other. Operators obtain batches with getBatch and
	// recycle their inputs with putBatch once the data has been copied
	// onward, so a steady-state selective scan→apply pipeline performs no
	// per-row heap allocation (see DESIGN.md §13 for the ownership
	// rules). nil runs every operator on freshly allocated batches —
	// results are byte-identical either way.
	Pool *types.BatchPool

	traceDepth int
	noPipeline int // build-time: >0 while under a Limit (no stages)
	dl         *deadlineState
	stages     []*stageIter // pipeline stages of the current (or last) Run
	applies    []*applyIter // apply operators of the current Run
	scratch    *stmtScratch // the operators' scratch, from scratchPool

	storedMu sync.Mutex
	// stored counts, per store view, the applies of the current Run that
	// reached end of stream with every result durable. guarded by storedMu
	// (applies may run in different pipeline stages).
	stored map[string]int
}

// noteStored records that an apply storing into view saw its whole
// input and flushed the last of its results.
func (c *Context) noteStored(view string) {
	c.storedMu.Lock()
	defer c.storedMu.Unlock()
	if c.stored == nil {
		c.stored = map[string]int{}
	}
	c.stored[view]++
}

// Stored reports, after Run, how many of the plan's applies into each
// store view ran to completion: the view holds a result for every row
// the apply's gate admits, whatever became of the statement afterwards.
// An apply cut short — an error anywhere below or in it, a LIMIT above
// it that stopped pulling — is not counted, for results it evaluated may
// never have been stored.
func (c *Context) Stored() map[string]int {
	c.storedMu.Lock()
	defer c.storedMu.Unlock()
	out := make(map[string]int, len(c.stored))
	for view, n := range c.stored {
		out[view] = n
	}
	return out
}

func (c *Context) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// getBatch returns an empty batch carrying schema, drawn from the
// context's pool when one is installed.
func (c *Context) getBatch(schema types.Schema) *types.Batch {
	if c.Pool != nil {
		return c.Pool.Get(schema)
	}
	return types.NewBatch(schema)
}

// putBatch recycles a pool-owned batch once its owner has copied the
// data onward. Unpooled batches — view snapshots, cache-resident
// detector outputs, batches from a pool-less Context — pass through as
// a no-op, so operators can hand every consumed input here without
// tracking provenance.
func (c *Context) putBatch(b *types.Batch) {
	if c.Pool != nil && b.Pooled() {
		c.Pool.Put(b)
	}
}

// Run executes the plan to completion and returns all result rows.
func Run(ctx *Context, n plan.Node) (*types.Batch, error) {
	ctx.armDeadline()
	ctx.stages, ctx.applies = nil, nil
	ctx.stored = nil // lint:nolock no stage of this Run exists yet
	defer func() {
		ctx.stopStages()
		// An apply cut short — by an error anywhere in the plan or a
		// LIMIT above it — keeps the view rows it staged; nothing will
		// store them now, so they go back to the pool.
		for _, a := range ctx.applies {
			a.abort()
		}
		ctx.applies = nil
		// No operator runs now: their scratch serves the next statement.
		ctx.releaseScratch()
	}()
	warmSchemas(n)
	it, err := build(ctx, n)
	if err != nil {
		return nil, err
	}
	// The collector is pooled too, but it is returned to the caller —
	// ownership leaves the executor, and the engine offers an explicit
	// Recycle for callers that fold the rows and discard them.
	out := ctx.getBatch(n.Schema())
	for {
		b, err := it.next()
		if err != nil {
			ctx.putBatch(out)
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		err = out.AppendBatch(b)
		ctx.putBatch(b)
		if err != nil {
			ctx.putBatch(out)
			return nil, fmt.Errorf("exec: collect results: %w", err)
		}
	}
}

// iterator produces batches; nil signals end of stream.
type iterator interface {
	next() (*types.Batch, error)
}

func build(ctx *Context, n plan.Node) (iterator, error) {
	it, err := buildTraced(ctx, n)
	if err != nil {
		return nil, err
	}
	if ctx.dl == nil {
		return it, nil // no deadline and no injector: nothing to check
	}
	// Every operator's next first checks the shared deadline state, so
	// cancellation and deadline expiry propagate within one batch even
	// through pipeline breakers (whose guarded inputs abort their
	// internal drain loops).
	return &guardIter{dl: ctx.dl, in: it}, nil
}

func buildTraced(ctx *Context, n plan.Node) (iterator, error) {
	if ctx.Trace != nil {
		stat := ctx.Trace.register(ctx.traceDepth, n.Describe())
		ctx.traceDepth++
		it, err := buildNode(ctx, n)
		ctx.traceDepth--
		if err != nil {
			return nil, err
		}
		return &traceIter{in: it, stat: stat}, nil
	}
	return buildNode(ctx, n)
}

func buildNode(ctx *Context, n plan.Node) (iterator, error) {
	switch node := n.(type) {
	case *plan.Scan:
		return newScanIter(ctx, node)
	case *plan.ReuseApply:
		in, err := build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newApplyIter(ctx, node, ctx.maybeStage(in, node.Input))
	case *plan.Project:
		in, err := build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newProjectIter(ctx, node, in), nil
	case *plan.GroupBy:
		in, err := build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return &groupIter{ctx: ctx, in: ctx.maybeStage(in, node.Input), node: node}, nil
	case *plan.Sort:
		in, err := build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return &sortIter{ctx: ctx, in: ctx.maybeStage(in, node.Input), node: node}, nil
	case *plan.Limit:
		ctx.noPipeline++
		in, err := build(ctx, node.Input)
		ctx.noPipeline--
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, remaining: node.N}, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// CallFn makes the Context the expr.Caller of the selection, project
// and group-by programs: a scalar function left in an expression (only
// inexpensive builtins should remain after optimization) evaluates
// through the session's UDF domain.
func (c *Context) CallFn(fn string, args []types.Datum) (types.Datum, error) {
	return c.Domain.EvalScalar(fn, args)
}

// rowCaller is the expr.Caller of the apply operator's eval phase:
// calls nested in a UDF argument carry an identity derived from the
// row's and the batch's frozen breaker snapshot, so fault decisions
// and breaker bookkeeping stay order-independent.
type rowCaller struct {
	ctx  *Context
	id   uint64 // row's call identity
	sub  uint64 // nested-call counter within the row
	sink *udf.OutcomeSink
	hs   *udf.HealthSnapshot // batch breaker snapshot
}

func (r *rowCaller) CallFn(fn string, args []types.Datum) (types.Datum, error) {
	r.sub++
	return r.ctx.Domain.EvalScalarAt(fn, args, subCallID(r.id, r.sub), r.hs, r.sink)
}

// subCallID derives the identity of the k-th nested scalar call made
// while evaluating the row with identity base. Row identities are
// small sequence numbers (< 2³²), so shifting keeps the two spaces
// disjoint; the +1 keeps row 0's nested calls off the raw k values.
func subCallID(base, k uint64) uint64 { return (base+1)<<32 ^ k }

// --- Scan ---

// minScanBatch is the floor the memory budget may degrade the scan
// batch size to before a still-failing charge aborts the query.
const minScanBatch = 16

type scanIter struct {
	ctx   *Context
	node  *plan.Scan
	video *storage.Video
	pos   int64
	hi    int64
	width int           // current batch size; shrunk by budget degradation
	held  int64         // budget bytes reserved for the batch in flight
	where *expr.Program // node.Where less what the id range enforces, bound to the table; nil keeps every row
}

func newScanIter(ctx *Context, node *plan.Scan) (*scanIter, error) {
	v, err := ctx.Store.Video(node.Table)
	if err != nil {
		return nil, fmt.Errorf("exec: scan: %w", err)
	}
	hi := node.Hi
	if hi < 0 || hi > v.NumFrames() {
		hi = v.NumFrames()
	}
	lo := node.Lo
	if lo < 0 {
		lo = 0
	}
	s := &scanIter{ctx: ctx, node: node, video: v, pos: lo, hi: hi, width: ctx.batchSize()}
	if where := unenforced(node.Where, node.Sch, lo, hi); where != nil {
		s.where = ctx.lend(expr.Bind(where, node.Sch, nil))
	}
	return s, nil
}

// unenforced returns where without the conjuncts that the scan's range
// of ids [lo, hi) enforces already, nil when it enforces them all. A
// conjunct id <op> constant, either way round, with op one of = < <= >
// >=, holds on a convex set of integers, so it holds on every id of the
// range when it holds on both ends — which is checked by evaluating it
// there, not taken from the range the optimizer derived.
func unenforced(where expr.Expr, sch types.Schema, lo, hi int64) expr.Expr {
	if where == nil || lo >= hi || sch.KindOf("id") != types.KindInt {
		return where
	}
	ends := types.NewBatch(idSchema)
	if ends.AppendRow(types.NewInt(lo)) != nil || ends.AppendRow(types.NewInt(hi-1)) != nil {
		return where
	}
	return withoutBounds(where, ends)
}

// idSchema is the schema of a scan range's two ends.
var idSchema = types.Schema{{Name: "id", Kind: types.KindInt}}

// withoutBounds is unenforced over the conjuncts of e, which it rebuilds
// only where it drops one.
func withoutBounds(e expr.Expr, ends *types.Batch) expr.Expr {
	if l, ok := e.(*expr.Logic); ok && l.Op == expr.OpAnd {
		left, right := withoutBounds(l.L, ends), withoutBounds(l.R, ends)
		switch {
		case left == l.L && right == l.R:
			return e
		case left == nil:
			return right
		case right == nil:
			return left
		}
		return expr.NewAnd(left, right)
	}
	if isIDBound(e) {
		// A bound calls nothing, so its program needs no Caller.
		if kept, err := expr.Bind(e, idSchema, nil).Filter(ends, nil); err == nil && len(kept) == ends.Len() {
			return nil
		}
	}
	return e
}

// isIDBound reports whether e compares the column id with a constant by
// one of = < <= > >=.
func isIDBound(e expr.Expr) bool {
	c, ok := e.(*expr.Cmp)
	if !ok || c.Op == expr.OpNe {
		return false
	}
	col, ok := c.L.(*expr.Column)
	_, isConst := c.R.(*expr.Const)
	if !ok {
		col, ok = c.R.(*expr.Column)
		_, isConst = c.L.(*expr.Const)
	}
	return ok && isConst && strings.EqualFold(col.Name, "id")
}

// next produces the next scan batch with the rows Where keeps. The
// scan owns the batch it reads, pooled or not, so the selection
// compacts it in place, and ownership transfers downstream with the
// return. A batch the selection empties is not passed on; the next read
// then follows without an operator's guard in between, so the loop
// checks the deadline state itself, and a selective scan still stops
// within one batch of its deadline.
func (s *scanIter) next() (*types.Batch, error) {
	for emptied := false; ; emptied = true {
		// The previous batch has flowed downstream or been dropped; its
		// reservation stands in for "one batch resident" and is
		// returned before the next read.
		s.ctx.Budget.Release(s.held)
		s.held = 0
		if emptied {
			if err := s.ctx.dl.check(); err != nil {
				return nil, err
			}
		}
		b, err := s.read()
		if err != nil || b == nil || s.node.Where == nil {
			return b, err
		}
		// The selection is charged as planned, conjuncts the range
		// enforces included.
		s.ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, b.Len())
		if s.where == nil {
			return b, nil
		}
		sel, err := s.where.Filter(b, s.ctx)
		if err != nil {
			s.ctx.putBatch(b)
			return nil, fmt.Errorf("exec: filter %q: %w", s.node.Where, err)
		}
		if len(sel) > 0 {
			b.CompactSel(sel)
			return b, nil
		}
		s.ctx.putBatch(b)
	}
}

// read scans the next batch, degrading the batch width under memory
// pressure. The batch comes from the context pool; ScanInto copies rows
// out of the segment cache, so recycling the batch later cannot touch
// cached storage. Allocation here is batch-granular: the row loop is
// gated so the pooled-batch refactor cannot regress to per-row heap
// traffic.
// lint:hotpath scan inner loop must not allocate per row
func (s *scanIter) read() (*types.Batch, error) {
	if s.pos >= s.hi {
		return nil, nil
	}
	b := s.ctx.getBatch(s.video.Schema())
	for {
		end := s.pos + int64(s.width)
		if end > s.hi {
			end = s.hi
		}
		if err := s.video.ScanInto(b, s.pos, end); err != nil {
			s.ctx.putBatch(b)
			return nil, fmt.Errorf("exec: scan %s: %w", s.video.Name(), err)
		}
		// Sizing walks every datum, frame payloads included: only a
		// budget needs it.
		if s.ctx.Budget != nil {
			sz := int64(b.EncodedSize())
			if !s.ctx.Budget.Charge(sz) {
				// Degrade: halve the batch width and rescan before
				// giving up. The decision depends only on encoded data
				// sizes, so it is identical on every run of the same
				// query.
				if s.width > minScanBatch {
					s.width /= 2
					if s.width < minScanBatch {
						s.width = minScanBatch
					}
					s.ctx.Budget.NoteDegrade()
					b.Reset()
					continue
				}
				s.ctx.putBatch(b)
				return nil, fmt.Errorf("exec: scan %s: %w", s.video.Name(),
					s.ctx.Budget.Exceeded("scan batch", sz))
			}
			s.held = sz
		}
		s.pos = end
		s.ctx.Clock.ChargePerTuple(simclock.CatReadVideo, costs.ReadVideoCost, b.Len())
		return b, nil
	}
}

// --- ReuseApply ---

type applyIter struct {
	ctx  *Context
	in   iterator
	node *plan.ReuseApply

	keyIdx  []int
	sources []*storage.View
	store   *storage.View
	fuzzy   []*fuzzyIndex // per-source fuzzy bbox indexes (§6 extension)

	// probeViews is the list the reuse arm consults: the planner's
	// sources, plus (in session mode) the store view itself, so rows a
	// concurrent session already published are reused, not recomputed.
	probeViews []*storage.View

	// evalLower is node.Eval lower-cased once at build time, so the
	// runtime's accounting and eval calls take it as is.
	evalLower string
	readCost  time.Duration // virtual cost of one view-served key

	rowSeq uint64 // serial per-query sequence assigning call identities

	pendingRows *types.Batch    // buffered fresh results for the store view
	pendingKeys [][]types.Datum // buffered processed keys, cut from keyArena
	keyArena    []types.Datum   // backs pendingKeys; reused from flush to flush
	seenPending storage.IDKeys  // keys of the current id already buffered this query

	claimed    []string // store-view keys this batch holds claims on
	staged     int64    // budget bytes reserved for pending view rows
	stagedRows int      // the pending rows those bytes are the size of
	stored     bool     // end of stream seen and reported to the Context

	// The per-batch scratch of the probe and assemble phases, drawn
	// from the statement's (Context.nextApplyScratch).
	*applyScratch
	span      [1]udf.IDSpan  // a dense batch's ids
	claimSeen storage.IDKeys // dedup set of unservedKeys
	claimBuf  []string       // backs claimed
	scratch   []evalScratch  // per-worker eval scratch

	// The eval phase's batch: calls[i] is the invocation for input row
	// sel[i], its arguments in argBuf, cut into one chunk per worker. A
	// scalar UDF's values land in scalarVals[i] and move to scalarOut so
	// they gather like any other source.
	calls      []udf.Call
	argBuf     []types.Datum
	chunks     []evalChunk
	scalarVals [1][]types.Datum
	scalarOut  *types.Batch

	// The gathers' column lists (AppendGather): an output row carries
	// input columns passIdx and Out columns emitIdx, a staged view row
	// the key columns and every Out column (outIdx). Out columns are
	// trailing-column ordinals, for a view's rows lead with their key.
	passIdx, emitIdx, outIdx []int

	// The selections (node.Where), each bound to whereSch: the
	// columns they read, input columns whereIn then Out columns
	// whereOut, gathered per batch into a pooled scratch batch.
	where             []*expr.Program
	whereSch          types.Schema
	whereIn, whereOut []int
}

// evalScratch is one worker's private evaluation state: the argument
// expressions bound to the input schema (a program owns scratch, so
// workers cannot share one), the caller nested calls go through and
// the frame decoder, whose memo lets the sibling rows of one frame
// share a decode. runParallel pins each goroutine to one slot, so no
// locking is needed and the steady-state eval loop allocates nothing.
type evalScratch struct {
	progs  []*expr.Program
	nested bool // an argument calls a function
	call   rowCaller
	dec    vision.Decoder
}

// evalChunk is what one chunk of a batch's evaluation leaves for the
// assemble phase: the breaker outcomes of its rows, in row order, and —
// for a table UDF — the pooled batch holding their detection rows,
// recycled once the output and the view staging have copied them.
type evalChunk struct {
	sink udf.OutcomeSink
	out  *types.Batch
}

func newApplyIter(ctx *Context, node *plan.ReuseApply, in iterator) (*applyIter, error) {
	a := &applyIter{ctx: ctx, in: in, node: node, applyScratch: ctx.nextApplyScratch(),
		evalLower: strings.ToLower(node.Eval), readCost: costs.ScalarViewReadCost}
	if node.TableUDF {
		a.readCost = costs.TableViewReadCost
	}
	inSchema := node.Input.Schema()
	for _, kc := range node.KeyCols {
		idx := inSchema.IndexOf(kc)
		if idx < 0 {
			return nil, fmt.Errorf("exec: apply key column %q not in input %s", kc, inSchema)
		}
		a.keyIdx = append(a.keyIdx, idx)
	}
	for _, src := range node.Sources {
		v := ctx.Store.View(src.ViewName)
		if v == nil {
			// The view does not exist yet (the signature's first query);
			// create it so results land somewhere consistent.
			created, err := ctx.Store.CreateView(src.ViewName, a.viewSchema(inSchema), node.KeyCols)
			if err != nil {
				return nil, fmt.Errorf("exec: source view %s: %w", src.ViewName, err)
			}
			v = created
		}
		a.sources = append(a.sources, v)
	}
	if node.StoreView != "" {
		v, err := ctx.Store.CreateView(node.StoreView, a.viewSchema(inSchema), node.KeyCols)
		if err != nil {
			return nil, fmt.Errorf("exec: store view %s: %w", node.StoreView, err)
		}
		a.store = v
	}
	if node.FuzzyBBox && !node.TableUDF {
		if idCol, bboxCol, ok := fuzzyKeyPositions(node.KeyCols, a.viewSchema(inSchema)); ok {
			for _, view := range a.sources {
				a.fuzzy = append(a.fuzzy, buildFuzzyIndex(view, idCol, bboxCol))
			}
		}
	}
	a.bindColumns(inSchema)
	ctx.applies = append(ctx.applies, a)
	a.probeViews = a.sources
	if ctx.Sessions && a.store != nil {
		inSources := false
		for _, v := range a.sources {
			if v == a.store {
				inSources = true
				break
			}
		}
		if !inSources {
			a.probeViews = append(append([]*storage.View(nil), a.sources...), a.store)
		}
	}
	return a, nil
}

// bindColumns resolves the column lists of the operator's gathers, one
// backing array for all of them — so an empty list is not nil, which
// AppendGather reads as every column — and binds the Where predicates
// to the columns they read, in input ⊕ Out order.
func (a *applyIter) bindColumns(in types.Schema) {
	node, rw := a.node, len(a.node.Out)
	cols := make([]int, 0, 2*len(in)+3*rw)
	cut := func(from int) []int { return cols[from:len(cols):len(cols)] }
	for i, c := range in {
		if node.Passes(c.Name) {
			cols = append(cols, i)
		}
	}
	a.passIdx = cut(0)
	at := len(cols)
	for j, c := range node.Out {
		if node.Emits(c.Name) {
			cols = append(cols, j-rw)
		}
	}
	a.emitIdx = cut(at)
	at = len(cols)
	for j := range node.Out {
		cols = append(cols, j-rw)
	}
	a.outIdx = cut(at)
	if len(node.Where) == 0 {
		return
	}
	// The predicates name columns of input ⊕ Out as Concat names them;
	// the ones they read are compacted in place into whereSch.
	full, w, nin := in.Concat(node.Out), 0, 0
	at = len(cols)
	for i, c := range full {
		if !reads(node.Where, c.Name) {
			continue
		}
		full[w] = c
		w++
		if i < len(in) {
			cols = append(cols, i)
			nin++
		} else {
			cols = append(cols, i-len(in)-rw)
		}
	}
	a.whereIn, a.whereOut = cols[at:at+nin:at+nin], cut(at+nin)
	a.whereSch = full[:w]
	a.where = make([]*expr.Program, len(node.Where))
	for i, pred := range node.Where {
		a.where[i] = a.ctx.lend(expr.Bind(pred, a.whereSch, nil))
	}
}

// reads reports whether any of the predicates reads the named column.
func reads(preds []expr.Expr, col string) bool {
	found := false
	for _, p := range preds {
		expr.Walk(p, func(e expr.Expr) {
			if c, ok := e.(*expr.Column); ok && strings.EqualFold(c.Name, col) {
				found = true
			}
		})
	}
	return found
}

// viewSchema is the stored row layout: key columns then output columns.
func (a *applyIter) viewSchema(in types.Schema) types.Schema {
	var sch types.Schema
	for _, kc := range a.node.KeyCols {
		sch = append(sch, types.Column{Name: kc, Kind: in.KindOf(kc)})
	}
	return sch.Concat(a.node.Out)
}

// viewFlushRows is the pending-row threshold above which the store
// view is flushed between batches, mirroring EVA's batched
// materialization (batch size 200 MiB in the paper). Flushing at batch
// boundaries — never mid-row-loop — keeps view visibility independent
// of evaluation scheduling, so parallel and serial runs probe
// identical view states.
const viewFlushRows = 8192

// rowDecision is the apply operator's per-row outcome. The serial
// probe phase either serves the row from a view — the probe writes its
// gather triples — or queues it for UDF evaluation; the parallel eval
// phase evaluates the queued rows as udf.Calls; the serial assemble
// phase merges both in row order.
type rowDecision struct {
	served bool
	id     uint64 // call identity for fault injection
	err    error  // an argument failed to evaluate
}

func (a *applyIter) next() (*types.Batch, error) {
	for {
		b, err := a.in.next()
		if err != nil {
			a.releaseClaims()
			return nil, err
		}
		if b == nil {
			err := a.flush()
			a.releaseClaims()
			if err == nil && a.store != nil && !a.stored {
				a.stored = true
				a.ctx.noteStored(a.node.StoreView)
			}
			return nil, err
		}
		out, err := a.step(b)
		// Everything the output, the pending view rows and the claims
		// need has been copied out of the input batch; recycle it.
		a.ctx.putBatch(b)
		if err != nil {
			a.releaseClaims()
			return nil, err
		}
		if out != nil {
			return out, nil
		}
		// The Where kept no row: like a selective scan, the operator
		// passes no empty batch on.
	}
}

// step runs the operator's phases over one input batch and returns
// the output batch — nil when the Where keeps no row. The Where and the
// output gather run after the batch's view rows are staged and, when
// due, published, so a selection never changes what is stored.
func (a *applyIter) step(b *types.Batch) (*types.Batch, error) {
	decisions, err := a.probePhase(b)
	if err != nil {
		return nil, fmt.Errorf("exec: apply %s: %w", a.node.Eval, err)
	}
	if a.ctx.Sessions && a.store != nil {
		a.claimPhase(decisions)
	}
	a.evalPhase(b, decisions)
	// The chunks' detection rows are sources of the output gather.
	defer func() {
		for k := range a.chunks {
			a.ctx.putBatch(a.chunks[k].out)
			a.chunks[k].out = nil
		}
	}()
	if err := a.assemblePhase(b, decisions); err != nil {
		return nil, err
	}
	if err := a.chargeStaged(); err != nil {
		return nil, err
	}
	if a.ctx.Sessions && a.store != nil {
		// Publish at every batch boundary, then hand the claimed keys
		// back: a session blocked on one of them re-probes and finds
		// the rows it was waiting for already materialized.
		if err := a.flush(); err != nil {
			return nil, err
		}
		a.releaseClaims()
	} else if a.pendingRows != nil && a.pendingRows.Len() >= viewFlushRows {
		if err := a.flush(); err != nil {
			return nil, err
		}
	}
	if err := a.wherePhase(b); err != nil {
		return nil, err
	}
	if len(a.where) > 0 && len(a.inRows) == 0 {
		return nil, nil
	}
	out := a.ctx.getBatch(a.node.Schema())
	if err := out.AppendGather(b, a.passIdx, a.inRows, a.srcs, a.emitIdx, a.srcRows); err != nil {
		a.ctx.putBatch(out)
		return nil, fmt.Errorf("exec: apply %s: %w", a.node.Eval, err)
	}
	return out, nil
}

// claimPhase acquires per-(view, key) singleflight ownership of every
// key this batch is about to evaluate. Claims are all-or-nothing: if
// any key is owned by a concurrent session, we wait — holding no
// claims of our own, so no cycle can form — for that session to
// publish and release, re-probe the refreshed views, and retry with
// whatever keys are still unserved. Keys that became servable are
// reused instead of recomputed, which is the no-double-compute
// invariant of the serving layer.
func (a *applyIter) claimPhase(decisions []rowDecision) {
	for len(a.sel) > 0 {
		keys := a.unservedKeys()
		granted, busy := a.store.ClaimKeys(keys)
		if granted {
			a.claimed = keys
			// A holder may have published and released between our
			// probe and this grant. With the claims held nobody else
			// can publish these keys, so one more lookup — charged only
			// for what it serves — settles which rows still need
			// evaluating.
			a.account(nil, 0, a.probeViewsSel(decisions))
			return
		}
		<-busy
		a.reprobe(decisions)
	}
}

// reprobe is the probe phase's batch join again, over the rows still
// unserved: it serves the ones a concurrent session published while we
// waited for its claim. Demand was recorded when the batch was first
// probed; only the new probes and reuses are accounted.
func (a *applyIter) reprobe(decisions []rowDecision) {
	probed := len(a.sel)
	a.account(nil, probed, a.probeViewsSel(decisions))
}

// unservedKeys collects the distinct encoded keys of the rows still
// headed for UDF evaluation, in row order. The strings are what the
// view's claim table keeps, so one per distinct key is the floor.
func (a *applyIter) unservedKeys() []string {
	a.claimSeen.Reset()
	keys := a.claimBuf[:0]
	for _, r := range a.sel {
		if _, added := a.claimSeen.Add(&a.pk, r); added {
			keys = append(keys, string(a.pk.Key(r)))
		}
	}
	a.claimBuf = keys
	return keys
}

// abort ends the operator's part in a statement that stopped before
// its end of stream — Run's epilogue calls it: it hands back its claims
// and recycles the view rows it staged but never flushed, which
// nothing will store now.
func (a *applyIter) abort() {
	a.releaseClaims()
	a.ctx.putBatch(a.pendingRows)
	a.pendingRows = nil
}

// releaseClaims returns this batch's claimed store-view keys, waking
// any session blocked on them. Safe to call with none held.
func (a *applyIter) releaseClaims() {
	if len(a.claimed) == 0 || a.store == nil {
		return
	}
	a.store.ReleaseKeys(a.claimed)
	a.claimed = nil
}

// chargeStaged charges the memory budget for the growth of the view-
// append staging buffer: the encoded size of the rows this batch
// staged, the only ones it walks. A failed charge degrades by flushing
// early — the staged rows hit disk and their reservation is returned —
// rather than aborting.
func (a *applyIter) chargeStaged() error {
	if a.ctx.Budget == nil || a.pendingRows == nil {
		return nil
	}
	delta := int64(a.pendingRows.EncodedSizeFrom(a.stagedRows))
	if delta <= 0 {
		return nil
	}
	if a.ctx.Budget.Charge(delta) {
		a.staged, a.stagedRows = a.staged+delta, a.pendingRows.Len()
		return nil
	}
	a.ctx.Budget.NoteDegrade()
	return a.flush()
}

// probePhase is the reuse arm: the LEFT OUTER JOIN of the input batch
// with the materialized views (Fig. 4), run batch at a time. It probes
// each view once for the rows the views before it left unserved — an
// ordered merge of the batch's ids, which never decrease, that reads no
// key bytes (storage.View.Probe) — encodes the keys of the rows left, falls
// back to the fuzzy index, and settles demand, reuse and virtual-clock
// accounting in one call each. Rows no view can serve stay in a.sel,
// queued for evaluation with their call identities assigned. The
// accounting is a set of sums, so it equals what a row-at-a-time probe
// would have charged.
// lint:hotpath apply probe loops must not allocate per row
func (a *applyIter) probePhase(b *types.Batch) ([]rowDecision, error) {
	n := b.Len()
	if cap(a.decisions) < n {
		// Batches of one operator vary in width (an upstream detector
		// fans each frame out into its objects), so grow geometrically:
		// a query re-sizes its scratch a couple of times, not once per
		// wider batch.
		c := max(n, 2*cap(a.decisions))
		a.decisions = make([]rowDecision, c)
		a.sel = make([]int, c)
	}
	decisions := a.decisions[:n]
	a.sel = a.sel[:n]
	p := &a.probed
	p.In, p.Srcs, p.Rows, a.passes = p.In[:0], p.Srcs[:0], p.Rows[:0], a.passes[:0]
	for r := 0; r < n; r++ {
		decisions[r] = rowDecision{}
		a.sel[r] = r
	}
	if err := a.pk.Reset(b, a.keyIdx); err != nil {
		return nil, fmt.Errorf("probe keys: %w", err)
	}
	reused := a.probeViewsSel(decisions)
	// Claims, staging and zero-row keys need the bytes of the keys left;
	// a row the fuzzy index serves is demanded by its hash too.
	a.pk.Encode(a.sel)
	if len(a.fuzzy) > 0 {
		reused += a.serveFuzzy(b, decisions)
	}
	a.account(b, n, reused)

	// Call identities are assigned here, at a serial point in input-row
	// order, so the injected fault schedule is a function of the row's
	// position in the serial plan — not of which worker reaches it
	// first.
	for _, r := range a.sel {
		decisions[r].id = a.rowSeq
		a.rowSeq++
	}
	return decisions, nil
}

// probeViewsSel joins the rows in a.sel against the probe views, one
// batch probe per view: rows a view knows are marked served — the probe
// writes the gather triples of the stored rows to emit, read under the
// same view lock, as a segment of a.probed — and leave a.sel, so the
// next view sees only what is still missing. A view that covered the
// batch served every row in a.sel, a row without a hit with no rows.
// It returns the number of rows served.
// lint:hotpath apply probe loops must not allocate per row
func (a *applyIter) probeViewsSel(decisions []rowDecision) int {
	served := 0
	for _, view := range a.probeViews {
		if len(a.sel) == 0 {
			break
		}
		a.probed.Hits = a.probed.Hits[:0]
		// lint:noerrcheck Probe fails only on a batch Reset refused, and probePhase returns that
		_ = view.Probe(&a.pk, a.sel, &a.probed)
		a.endSegment()
		for _, h := range a.probed.Hits {
			decisions[h.Key].served = true
		}
		switch {
		case a.probed.Covered:
			for _, r := range a.sel {
				decisions[r].served = true
			}
			served += len(a.sel)
			a.sel = a.sel[:0]
		case len(a.probed.Hits) > 0:
			served += len(a.probed.Hits)
			a.compactSel(decisions)
		}
	}
	return served
}

// idSpans returns the ids of b, an id-keyed batch, as ascending closed
// intervals of consecutive ids.
func (a *applyIter) idSpans(b *types.Batch) []udf.IDSpan {
	if lo, hi, ok := a.pk.Dense(); ok {
		a.span[0] = udf.IDSpan{Lo: lo, Hi: hi}
		return a.span[:]
	}
	spans := a.spans[:0]
	for _, d := range b.Col(a.keyIdx[0])[:b.Len()] {
		if k, x := len(spans), d.Int(); k > 0 && (x == spans[k-1].Hi || x == spans[k-1].Hi+1) {
			spans[k-1].Hi = x
		} else {
			spans = append(spans, udf.IDSpan{Lo: x, Hi: x})
		}
	}
	a.spans = spans
	return spans
}

// endSegment closes the segment of a.probed the last pass wrote, unless
// it wrote none.
func (a *applyIter) endSegment() {
	end := len(a.probed.In)
	if k := len(a.passes); k == 0 && end > 0 || k > 0 && end > a.passes[k-1] {
		a.passes = append(a.passes, end)
	}
}

// compactSel drops the served rows from a.sel, keeping row order.
func (a *applyIter) compactSel(decisions []rowDecision) {
	w := 0
	for _, r := range a.sel {
		if !decisions[r].served {
			a.sel[w] = r
			w++
		}
	}
	a.sel = a.sel[:w]
}

// account settles one probe pass with the runtime and the virtual
// clock: rows probed, rows served and, for the first pass over batch b
// (nil on a re-probe), its rows' demanded invocations. A key that is the
// id alone is demanded by its id, served or not — a covered batch leaves
// no hashes — as b's runs of consecutive ids; any other key by its hash.
func (a *applyIter) account(b *types.Batch, probed, reused int) {
	switch {
	case b == nil:
		a.ctx.Runtime.RecordBatch(a.evalLower, nil, reused)
	case len(a.keyIdx) == 1:
		a.ctx.Runtime.RecordIDs(a.evalLower, a.idSpans(b), probed, reused)
	default:
		a.ctx.Runtime.RecordBatch(a.evalLower, a.pk.Hashes, reused)
	}
	a.ctx.Clock.ChargePerTuple(simclock.CatApply, costs.ProbeCost, probed)
	a.ctx.Clock.ChargePerTuple(simclock.CatReadView, a.readCost, reused)
}

// evalPhase runs the conditional-Apply arm for every unserved row
// (a.sel): the rows are cut into one contiguous chunk per worker and
// each chunk is one batch UDF evaluation. A chunk writes only its own
// calls, values and output batch; the Runtime and Clock are
// concurrency-safe, so no further locking is needed. Breaker admission
// uses one frozen snapshot per batch, captured here at a serial point,
// so every row sees the same health decisions the serial engine's batch
// start would.
func (a *applyIter) evalPhase(b *types.Batch, decisions []rowDecision) {
	n := len(a.sel)
	if n == 0 {
		return
	}
	workers := a.ctx.workers()
	if len(a.scratch) < workers {
		a.scratch = make([]evalScratch, workers)
		inSchema := a.node.Input.Schema()
		for w := range a.scratch {
			sc := &a.scratch[w]
			for _, argE := range a.node.Args {
				prog := expr.Bind(argE, inSchema, nil)
				sc.progs = append(sc.progs, prog)
				sc.nested = sc.nested || prog.HasCalls()
			}
		}
	}
	if cap(a.calls) < n {
		c := max(n, 2*cap(a.calls))
		a.calls = make([]udf.Call, c)
		a.argBuf = make([]types.Datum, c*len(a.node.Args))
		if !a.node.TableUDF {
			a.scalarVals[0] = make([]types.Datum, c)
		}
	}
	for i, r := range a.sel {
		a.calls[i] = udf.Call{ID: decisions[r].id}
	}
	chunks := min(workers, n)
	if len(a.chunks) < workers {
		a.chunks = make([]evalChunk, workers)
	}
	scratch := a.scratch
	hs := a.ctx.Domain.HealthSnapshot()
	runParallel(workers, chunks, func(w, k int) {
		a.evalChunk(b, decisions, &a.chunks[k], k*n/chunks, (k+1)*n/chunks, hs, &scratch[w])
	})
}

// evalChunk evaluates calls [lo, hi) — one chunk of the batch — on the
// calling worker's private scratch: the arguments of every row through
// the bound programs, then the UDF over the whole chunk. When an
// argument itself calls a function the chunk goes a row at a time, so
// that nested and outer invocations alternate as a row-at-a-time
// evaluation would have them: calls are observable (clock, counters,
// injected faults, breaker outcomes) and their sequence is the serial
// plan's.
func (a *applyIter) evalChunk(b *types.Batch, decisions []rowDecision, ch *evalChunk, lo, hi int, hs *udf.HealthSnapshot, sc *evalScratch) {
	if a.node.TableUDF {
		ch.out = a.ctx.getBatch(a.node.Out)
	}
	sc.call = rowCaller{ctx: a.ctx, sink: &ch.sink, hs: hs}
	step := hi - lo
	if sc.nested {
		step = 1
	}
	for ; lo < hi; lo += step {
		end := min(lo+step, hi)
		a.bindArgs(b, decisions, lo, end, sc)
		if a.node.TableUDF {
			a.ctx.Domain.EvalTableBatch(a.evalLower, a.calls[lo:end], hs, &ch.sink, &sc.dec, ch.out)
		} else {
			a.ctx.Domain.EvalScalarBatch(a.evalLower, a.calls[lo:end], a.scalarVals[0][lo:end], hs, &ch.sink, &sc.dec)
		}
	}
}

// bindArgs evaluates the UDF's arguments for calls [lo, hi) into the
// batch's argument buffer. A row whose argument fails keeps the error in
// its decision and its call is skipped.
// lint:hotpath apply argument loop must not allocate per argument
func (a *applyIter) bindArgs(b *types.Batch, decisions []rowDecision, lo, hi int, sc *evalScratch) {
	nargs := len(a.node.Args)
	for i := lo; i < hi; i++ {
		c, d := &a.calls[i], &decisions[a.sel[i]]
		c.Args = a.argBuf[i*nargs : (i+1)*nargs : (i+1)*nargs]
		sc.call.id, sc.call.sub = d.id, 0
		d.err = a.bindRow(b, a.sel[i], c.Args, sc)
		c.Skip = d.err != nil
	}
}

// bindRow evaluates one row's arguments into args.
func (a *applyIter) bindRow(b *types.Batch, r int, args []types.Datum, sc *evalScratch) error {
	for i, prog := range sc.progs {
		v, err := prog.EvalRow(b, r, &sc.call)
		if err != nil {
			return fmt.Errorf("exec: apply arg %q: %w", a.node.Args[i], err)
		}
		args[i] = v
	}
	if a.node.TableUDF && (len(args) != 1 || args[0].Kind() != types.KindBytes) {
		return fmt.Errorf("exec: table UDF %s expects a frame argument", a.node.Eval)
	}
	return nil
}

// assemblePhase merges served and evaluated rows back into input-row
// order and stages fresh results for the store view — the
// order-preserving fan-in that keeps parallel output byte-identical to
// serial. Every output row is described as an (input row, source batch,
// source row) triple: the probes wrote the served rows' (probeViewsSel),
// this phase writes the evaluated rows' behind them, and the segments,
// each ascending in input row, are merged (mergeTriples). The fresh
// rows' triples are gathered at once, behind their key columns, into the
// view-staging batch, and all of them are left for the wherePhase and
// the output gather of step, which copy only the columns they read (late
// materialization). Errors surface in row order, so the reported failure
// is the one the serial engine would hit first.
func (a *applyIter) assemblePhase(b *types.Batch, decisions []rowDecision) error {
	// Commit the deferred breaker outcomes of every evaluated row in
	// input order before surfacing any error: the pool evaluates all
	// rows of the batch at every worker count (including 1), so the
	// breaker's consecutive-failure state after the batch — and
	// therefore trips, degradation and replans — is identical whether
	// or not a row failed, and at any concurrency.
	for k := range a.chunks {
		a.ctx.Domain.CommitOutcomes(&a.chunks[k].sink)
	}
	calls := a.calls[:len(a.sel)]
	rows, failed := 0, len(calls)
	for i, r := range a.sel {
		d := &decisions[r]
		if failed == len(calls) && (d.err != nil || calls[i].Err != nil) {
			failed = i
		}
		if a.node.TableUDF {
			rows += calls[i].N
		} else {
			rows++
		}
	}
	if !a.node.TableUDF && len(calls) > 0 {
		// The values ahead of the first failed call become a column of
		// scalarOut; one of the wrong kind is an error of an earlier row.
		if a.scalarOut == nil {
			a.scalarOut = types.NewBatch(a.node.Out)
		}
		a.scalarOut.Reset()
		if err := a.scalarOut.AppendColumns(a.scalarVals[:], failed); err != nil {
			return fmt.Errorf("exec: udf %s: %w", a.node.Eval, err)
		}
	}
	p := &a.probed
	p.In, p.Srcs, p.Rows = slices.Grow(p.In, rows), slices.Grow(p.Srcs, rows), slices.Grow(p.Rows, rows)
	a.stInRows, a.stSrcs, a.stSrcRows = a.stInRows[:0], a.stSrcs[:0], a.stSrcRows[:0]
	for k, r := range a.sel {
		d, c := &decisions[r], &calls[k]
		switch {
		case d.err != nil:
			return d.err
		case c.Err != nil && a.node.TableUDF:
			return fmt.Errorf("exec: detector %s: %w", a.node.Eval, c.Err)
		case c.Err != nil:
			return fmt.Errorf("exec: udf %s: %w", a.node.Eval, c.Err)
		}
		src, start, n := a.scalarOut, k, 1
		if a.node.TableUDF {
			src, start, n = c.Rows, c.Start, c.N
		}
		first := len(p.In)
		for i := range n {
			p.In, p.Srcs, p.Rows = append(p.In, r), append(p.Srcs, src), append(p.Rows, start+i)
		}
		if a.store != nil && a.stageKey(b, r, n) {
			a.stInRows = append(a.stInRows, p.In[first:]...)
			a.stSrcs = append(a.stSrcs, p.Srcs[first:]...)
			a.stSrcRows = append(a.stSrcRows, p.Rows[first:]...)
		}
	}
	a.endSegment()
	a.mergeTriples()
	if len(a.stInRows) > 0 {
		if a.pendingRows == nil {
			a.pendingRows = a.ctx.getBatch(a.store.Schema())
		}
		if err := a.pendingRows.AppendGather(b, a.keyIdx, a.stInRows, a.stSrcs, a.outIdx, a.stSrcRows); err != nil {
			return fmt.Errorf("exec: buffer view rows: %w", err)
		}
	}
	return nil
}

// mergeTriples makes the segments of a.probed the gather triples, in
// input-row order. No two segments hold one input row, so the merge
// copies runs: the segment whose next row is least, up to the next row
// of any other. A batch with one segment — one probe pass served it
// whole, or no view served any of it — is in order as it stands, and its
// lists are swapped with the triples' rather than copied.
// lint:hotpath triple merge must not allocate per row
func (a *applyIter) mergeTriples() {
	p := &a.probed
	if len(a.passes) <= 1 {
		a.inRows, p.In = p.In, a.inRows[:0]
		a.srcs, p.Srcs = p.Srcs, a.srcs[:0]
		a.srcRows, p.Rows = p.Rows, a.srcRows[:0]
		return
	}
	n := len(p.In)
	a.inRows, a.srcs, a.srcRows = slices.Grow(a.inRows[:0], n), slices.Grow(a.srcs[:0], n), slices.Grow(a.srcRows[:0], n)
	cur := append(a.cur[:0], 0)
	cur = append(cur, a.passes[:len(a.passes)-1]...)
	a.cur = cur
	for len(a.inRows) < n {
		best, limit := -1, math.MaxInt
		for i, c := range cur {
			switch {
			case c == a.passes[i]:
			case best < 0:
				best = i
			case p.In[c] < p.In[cur[best]]:
				limit, best = p.In[cur[best]], i
			default:
				limit = min(limit, p.In[c])
			}
		}
		from, to := cur[best], cur[best]
		for to < a.passes[best] && p.In[to] < limit {
			to++
		}
		a.inRows = append(a.inRows, p.In[from:to]...)
		a.srcs = append(a.srcs, p.Srcs[from:to]...)
		a.srcRows = append(a.srcRows, p.Rows[from:to]...)
		cur[best] = to
	}
}

// wherePhase runs the selections over the batch's output rows before
// any of them is materialized: it gathers only the columns they read
// into a pooled scratch batch and cuts the gather triples down to the
// rows every selection keeps. Each selection is charged RowCost a row
// it sees, reports errors as a scan's Where does, and sees only the
// rows the ones before it kept.
func (a *applyIter) wherePhase(b *types.Batch) error {
	if len(a.where) == 0 || len(a.inRows) == 0 {
		return nil
	}
	w := a.ctx.getBatch(a.whereSch)
	defer a.ctx.putBatch(w)
	if err := w.AppendGather(b, a.whereIn, a.inRows, a.srcs, a.whereOut, a.srcRows); err != nil {
		return fmt.Errorf("exec: apply %s: %w", a.node.Eval, err)
	}
	for i, pred := range a.where {
		a.ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, w.Len())
		sel, err := pred.Filter(w, a.ctx)
		if err != nil {
			return fmt.Errorf("exec: filter %q: %w", a.node.Where[i], err)
		}
		a.keepRows(sel)
		if len(sel) == 0 {
			return nil
		}
		if i+1 < len(a.where) {
			w.CompactSel(sel)
		}
	}
	return nil
}

// keepRows cuts the gather triples down to the ascending rows sel.
func (a *applyIter) keepRows(sel []int) {
	for k, r := range sel {
		a.inRows[k], a.srcs[k], a.srcRows[k] = a.inRows[r], a.srcs[r], a.srcRows[r]
	}
	a.inRows, a.srcs, a.srcRows = a.inRows[:len(sel)], a.srcs[:len(sel)], a.srcRows[:len(sel)]
}

// stageKey reports whether input row r's n freshly computed result rows
// are to be staged for the store view: not when the query has staged
// its key already. A key with no rows (a frame with no detections) is
// queued here, as a processed key cut from the flush's key arena, and
// stages nothing.
// lint:hotpath view staging must not allocate per already-seen key
func (a *applyIter) stageKey(b *types.Batch, r, n int) bool {
	if _, added := a.seenPending.Add(&a.pk, r); !added {
		return false
	}
	if n > 0 {
		return true
	}
	at, end := len(a.keyArena), len(a.keyArena)+len(a.keyIdx)
	a.keyArena = slices.Grow(a.keyArena, len(a.keyIdx))[:end]
	key := a.keyArena[at:end:end]
	for i, idx := range a.keyIdx {
		key[i] = b.At(r, idx)
	}
	a.pendingKeys = append(a.pendingKeys, key)
	return false
}

func (a *applyIter) flush() error {
	if a.store == nil {
		return nil
	}
	rows := a.pendingRows
	keys := a.pendingKeys
	a.pendingRows = nil
	// The view encodes the keys it keeps (storage.View.Append) and nothing
	// stages keys while this flush runs, so the list and the arena behind
	// it are refilled from the start by the next one.
	a.pendingKeys, a.keyArena = keys[:0], a.keyArena[:0]
	a.ctx.Budget.Release(a.staged)
	a.staged, a.stagedRows = 0, 0
	if rows == nil && len(keys) == 0 {
		return nil
	}
	// A transient write fault leaves the view rolled back to its
	// pre-append state (storage.View.Append is atomic), so retrying the
	// whole batch is safe; backoff is charged like UDF retries.
	var n int
	err := faults.Retry(a.ctx.Clock, func() (err error) {
		n, err = a.store.AppendWith(rows, keys, a.ctx.Faults)
		return err // lint:noerrcheck the last attempt's error is wrapped below
	})
	// The view copied every stored row into its own batch, or stored
	// none; either way the staging buffer can go back to the pool.
	a.ctx.putBatch(rows)
	if err != nil {
		return fmt.Errorf("exec: materialize view %s: %w", a.store.Name(), err)
	}
	a.ctx.Clock.ChargePerTuple(simclock.CatMaterialize, costs.MatRowCost, n+len(keys))
	return nil
}

// --- Project ---

type projectIter struct {
	ctx  *Context
	in   iterator
	node *plan.Project

	items []*expr.Program // node.Items bound to the input schema
	// rowMajor: some item calls a function, so the items are evaluated
	// row by row and the invocations keep the row path's order — item
	// after item within a row, row after row.
	rowMajor bool
	cols     [][]types.Datum // per batch: the output columns
	row      []types.Datum   // rowMajor: the output row
}

func newProjectIter(ctx *Context, node *plan.Project, in iterator) *projectIter {
	p := &projectIter{ctx: ctx, in: in, node: node,
		items: make([]*expr.Program, len(node.Items)),
		cols:  make([][]types.Datum, len(node.Items))}
	inSchema := node.Input.Schema()
	for i, it := range node.Items {
		p.items[i] = ctx.lend(expr.Bind(it.E, inSchema, nil))
		p.rowMajor = p.rowMajor || p.items[i].HasCalls()
	}
	if p.rowMajor {
		p.row = make([]types.Datum, len(node.Items))
	}
	return p
}

// next projects one batch into a pooled output batch, recycling the
// input once its values have been copied. Each item is evaluated over
// the whole batch — a bare column reference is the input column itself
// — and the output is appended a column at a time. The error reported
// is that of the first failing row, and within it of the first failing
// item: an item that fails bounds the rows the items after it see.
func (p *projectIter) next() (*types.Batch, error) {
	b, err := p.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	p.ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, b.Len())
	out := p.ctx.getBatch(p.node.Schema())
	if p.rowMajor {
		err = p.projectRows(b, out)
	} else {
		rows := b.Len()
		for i, item := range p.items {
			vals, failed, ierr := item.Eval(b, rows, p.ctx)
			if ierr != nil {
				err = fmt.Errorf("exec: project %q: %w", p.node.Items[i].E, ierr)
				rows = failed
			}
			p.cols[i] = vals
		}
		if err == nil {
			if err = out.AppendColumns(p.cols, rows); err != nil {
				err = fmt.Errorf("exec: project: %w", err)
			}
		}
	}
	p.ctx.putBatch(b)
	if err != nil {
		p.ctx.putBatch(out)
		return nil, err
	}
	return out, nil
}

// projectRows is the row-major projection (see rowMajor).
func (p *projectIter) projectRows(b, out *types.Batch) error {
	for r := 0; r < b.Len(); r++ {
		for i, item := range p.items {
			v, err := item.EvalRow(b, r, p.ctx)
			if err != nil {
				return fmt.Errorf("exec: project %q: %w", p.node.Items[i].E, err)
			}
			p.row[i] = v
		}
		if err := out.AppendRow(p.row...); err != nil {
			return fmt.Errorf("exec: project: %w", err)
		}
	}
	return nil
}

// --- GroupBy ---

type groupIter struct {
	ctx  *Context
	in   iterator
	node *plan.GroupBy
	done bool

	// Reused scratch: probe key, encoded-key buffer.
	key   []types.Datum
	ekBuf []byte
}

type aggState struct {
	keyRow []types.Datum
	count  []int64
	sum    []float64
	min    []types.Datum
	max    []types.Datum
}

func (g *groupIter) next() (*types.Batch, error) {
	if g.done {
		return nil, nil
	}
	g.done = true

	inSchema := g.node.Input.Schema()
	keyIdx := make([]int, len(g.node.Keys))
	for i, k := range g.node.Keys {
		keyIdx[i] = inSchema.IndexOf(k)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("exec: group key %q not in %s", k, inSchema)
		}
	}

	// Aggregate arguments are bound once. They are evaluated a row at a
	// time, aggregate after aggregate within the row, so calls in them
	// keep the row path's order.
	args := make([]*expr.Program, len(g.node.Aggs))
	for i, agg := range g.node.Aggs {
		if agg.Arg == nil {
			continue
		}
		args[i] = expr.Bind(agg.Arg, inSchema, nil)
		kind := agg.InputKind(inSchema)
		if (agg.Kind == plan.AggSum || agg.Kind == plan.AggAvg) && kind != types.KindNull && !kind.Numeric() {
			return nil, fmt.Errorf("exec: %s(%s): argument is %s, want a numeric kind", agg.Kind, agg.Arg, kind)
		}
	}

	groups := map[string]*aggState{}
	var order []string
	if cap(g.key) < len(keyIdx) {
		g.key = make([]types.Datum, len(keyIdx))
	}
	key := g.key[:len(keyIdx)]
	for {
		b, err := g.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		g.ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, b.Len())
		for r := 0; r < b.Len(); r++ {
			for i, idx := range keyIdx {
				key[i] = b.At(r, idx)
			}
			// Lookups reuse the encoded-key buffer; only a new group
			// materializes the string key and copies the key row.
			g.ekBuf = storage.AppendKey(g.ekBuf[:0], key)
			st, ok := groups[string(g.ekBuf)]
			if !ok {
				ek := string(g.ekBuf)
				st = &aggState{
					keyRow: append([]types.Datum(nil), key...),
					count:  make([]int64, len(g.node.Aggs)),
					sum:    make([]float64, len(g.node.Aggs)),
					min:    make([]types.Datum, len(g.node.Aggs)),
					max:    make([]types.Datum, len(g.node.Aggs)),
				}
				groups[ek] = st
				order = append(order, ek)
			}
			for i, agg := range g.node.Aggs {
				var v types.Datum
				if agg.Arg != nil {
					v, err = args[i].EvalRow(b, r, g.ctx)
					if err != nil {
						return nil, fmt.Errorf("exec: aggregate arg %q: %w", agg.Arg, err)
					}
					if v.IsNull() {
						continue
					}
				}
				st.count[i]++
				if agg.Arg != nil && v.Kind().Numeric() {
					st.sum[i] += v.Float()
				}
				if agg.Arg != nil {
					if st.min[i].IsNull() || types.Compare(v, st.min[i]) < 0 {
						st.min[i] = v
					}
					if st.max[i].IsNull() || types.Compare(v, st.max[i]) > 0 {
						st.max[i] = v
					}
				}
			}
		}
		// Aggregate state holds Datum copies, never column slices, so
		// the drained input batch can be recycled immediately.
		g.ctx.putBatch(b)
	}
	// Global aggregate with no input rows still yields one row.
	if len(g.node.Keys) == 0 && len(order) == 0 {
		groups[""] = &aggState{
			count: make([]int64, len(g.node.Aggs)),
			sum:   make([]float64, len(g.node.Aggs)),
			min:   make([]types.Datum, len(g.node.Aggs)),
			max:   make([]types.Datum, len(g.node.Aggs)),
		}
		order = append(order, "")
	}
	// Deterministic output order.
	sort.Strings(order)

	out := g.ctx.getBatch(g.node.Schema())
	var row []types.Datum
	for _, ek := range order {
		st := groups[ek]
		row = append(row[:0], st.keyRow...)
		for i, agg := range g.node.Aggs {
			switch agg.Kind {
			case plan.AggCount:
				row = append(row, types.NewInt(st.count[i]))
			case plan.AggSum:
				row = append(row, types.NewFloat(st.sum[i]))
			case plan.AggAvg:
				if st.count[i] == 0 {
					row = append(row, types.Null)
				} else {
					row = append(row, types.NewFloat(st.sum[i]/float64(st.count[i])))
				}
			case plan.AggMin:
				row = append(row, st.min[i])
			case plan.AggMax:
				row = append(row, st.max[i])
			}
		}
		if err := out.AppendRow(row...); err != nil {
			g.ctx.putBatch(out)
			return nil, fmt.Errorf("exec: group by: %w", err)
		}
	}
	return out, nil
}

// --- Limit ---

type limitIter struct {
	in        iterator
	remaining int64
}

func (l *limitIter) next() (*types.Batch, error) {
	if l.remaining <= 0 {
		return nil, nil
	}
	b, err := l.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	if int64(b.Len()) > l.remaining {
		if b.Pooled() {
			// A pooled batch is exclusively owned; truncating in place
			// keeps it recyclable by the consumer (a Slice view would
			// alias pooled storage and could never be Put safely).
			b.Truncate(int(l.remaining))
		} else {
			b = b.Slice(0, int(l.remaining))
		}
	}
	l.remaining -= int64(b.Len())
	return b, nil
}

// FormatBatch renders a batch as an aligned text table (used by the
// shell and examples).
func FormatBatch(b *types.Batch) string {
	var sb strings.Builder
	names := b.Schema().Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, b.Len())
	for r := 0; r < b.Len(); r++ {
		cells[r] = make([]string, len(names))
		for c := range names {
			s := b.At(r, c).String()
			if len(s) > 40 {
				s = s[:37] + "..."
			}
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for c, v := range vals {
			if c > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[c], v)
		}
		sb.WriteByte('\n')
	}
	writeRow(names)
	for c, w := range widths {
		if c > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", b.Len())
	return sb.String()
}
