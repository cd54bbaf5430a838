package exec

// Parallel pipelined execution (DESIGN.md §10). With more than one
// worker (Context.Workers; 0, the default, is runtime.GOMAXPROCS), the
// executor runs in two cooperating modes:
//
//   - pipeline stages: the output of a conditional Apply is decoupled
//     from the operator that consumes it behind a bounded channel, so
//     the Apply below evaluates its next batch while the one above
//     works on the last (the Volcano tree becomes a short pipeline of
//     single-producer stages). A stage sits only on an Apply's output
//     — a Scan, its selection included, is cheap next to whatever
//     consumes it, so a stage over one overlaps nothing and costs a
//     handoff per batch — and it starts its producer only once the
//     Apply hands over a batch at least one scan batch wide; until then
//     the consumer pulls inline;
//   - parallel apply: within one batch, the conditional-Apply operator
//     evaluates the UDF invocations its probe phase could not serve
//     from a view across a bounded worker pool, then merges results in
//     row order.
//
// Determinism contract: results, reports and virtual-clock totals are
// byte-identical at every worker count. Order preservation comes from
// single-producer stages (batch order) plus the apply operator's
// serial probe/assemble phases (row order). Virtual-time invariance
// comes from charging exactly the serial set of modeled costs: stage
// producers perform exactly the pulls the serial engine would (stages
// are never inserted under a Limit, whose early exit would otherwise
// let a producer prefetch — and charge for — batches the serial engine
// never reads; nor under fault injection or a query deadline, whose
// aborts could do the same), and the worker pool evaluates exactly the
// rows the serial engine would. Sums of charges commute, so scheduling
// order cannot change any total; when a stage starts depends only on
// the data, and nothing observable depends on it. The one exception is
// a failing query: the pool may have evaluated (and charged for) rows
// past the first error before the abort propagates; the query's
// results are discarded either way.
//
// The contract extends to fault-injected runs: fault decisions are
// pure functions of (seed, site, call identity) rather than draws from
// a shared stream (see internal/faults), the apply operator assigns
// identities at a serial point (the probe phase), breaker admission is
// frozen per batch (udf.HealthSnapshot), and breaker outcomes are
// committed in serial row order during assembly (udf.OutcomeSink), so
// the injected schedule, retry charges, breaker trips and degradation
// triggers are identical at every worker count.

import (
	"sync"

	"eva/internal/plan"
	"eva/internal/types"
	"eva/internal/udf"
)

// DefaultPipelineDepth is the number of in-flight batches buffered at
// each pipeline stage boundary. Small on purpose: one batch hides the
// producer's latency, a second absorbs jitter, and anything more only
// grows memory for speculative decode with no throughput gain.
const DefaultPipelineDepth = 2

// workers returns the effective evaluation concurrency for this
// execution: Context.Workers, or runtime.GOMAXPROCS when it is 0,
// floored at 1 (udf.Workers, the only place the default is decided).
// Fault injection and the FunCache baseline do not pin execution
// serial — fault decisions are keyed by call identity instead of draw
// order (internal/faults), and FunCache's singleflight makes its
// eval/store accounting order-independent — though fault-injected and
// deadline-bounded runs do forgo pipeline *stages* (see maybeStage).
func (c *Context) workers() int { return udf.Workers(c.Workers) }

// warmSchemas populates every plan node's lazily memoized schema
// bottom-up before any pipeline goroutine starts. The memoization in
// internal/plan is unsynchronized — fine while the plan tree is
// touched by one goroutine, a data race once stage producers call
// Schema() concurrently with the consumer.
func warmSchemas(n plan.Node) {
	for _, child := range n.Children() {
		warmSchemas(child)
	}
	n.Schema()
}

// stageMsg carries one producer step across a stage boundary.
type stageMsg struct {
	b   *types.Batch
	err error
}

// stageIter decouples an Apply's output from its consumer. It starts
// inline: the consumer pulls from the input itself. The first time the
// input hands over a batch at least one scan batch wide, it starts a
// producer goroutine that pulls batches and buffers up to
// DefaultPipelineDepth of them, preserving batch order (single
// producer, single FIFO channel). The producer stops at end of stream,
// at the first error, or when halted by stopStages.
type stageIter struct {
	ctx  *Context
	in   iterator
	done bool // consumer side: end of stream or an error delivered
	live bool // consumer side: the producer runs; read from out

	out    chan stageMsg
	stop   chan struct{}
	exited chan struct{}

	mu      sync.Mutex
	started bool // guarded by mu
	halted  bool // guarded by mu
}

// newStage builds a pipeline stage over in and registers it on the
// Context for end-of-Run cleanup. Its producer starts later, if ever.
func (c *Context) newStage(in iterator) *stageIter {
	s := &stageIter{ctx: c, in: in,
		out:    make(chan stageMsg, DefaultPipelineDepth),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	c.stages = append(c.stages, s)
	return s
}

// start launches the producer unless stopStages got there first, and
// reports whether it did.
func (s *stageIter) start() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return false
	}
	s.started = true
	go s.produce()
	return true
}

// produce is the producer goroutine. A batch it holds when halted goes
// back to the pool; stopStages recycles what it buffered.
func (s *stageIter) produce() {
	defer close(s.exited)
	defer close(s.out)
	for {
		b, err := s.in.next()
		select {
		case s.out <- stageMsg{b: b, err: err}:
		case <-s.stop:
			if b != nil {
				s.ctx.putBatch(b)
			}
			return
		}
		if b == nil || err != nil {
			return
		}
	}
}

func (s *stageIter) next() (*types.Batch, error) {
	if s.done {
		return nil, nil
	}
	if !s.live {
		b, err := s.in.next()
		if b == nil || err != nil {
			s.done = true
		} else if b.Len() >= s.ctx.batchSize() {
			s.live = s.start()
		}
		return b, err
	}
	m, ok := <-s.out
	if !ok {
		// Producer halted before delivering end-of-stream (only
		// possible after stopStages); report a clean end.
		s.done = true
		return nil, nil
	}
	if m.b == nil || m.err != nil {
		s.done = true
	}
	return m.b, m.err
}

// halt tells the producer to stop pulling, or keeps it from starting
// and closes the channels it would have. Idempotent.
func (s *stageIter) halt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return
	}
	s.halted = true
	close(s.stop)
	if !s.started {
		close(s.out)
		close(s.exited)
	}
}

// maybeStage puts a pipeline stage over in, the built input node, when
// node is a conditional Apply, parallel execution is enabled and
// nothing could abandon the stream early. The decision reads the plan
// node, not the iterator, which the deadline guard or the tracer may
// wrap. A prefetching producer under a Limit, an injected fault, or a
// query deadline would charge the virtual clock for batches the serial
// engine never pulls (the serial engine stops at the first error; a
// stage producer races ahead of it), breaking worker-count invariance
// of the simulated totals. Fault-injected and deadline-bounded runs
// therefore keep the parallel apply worker pool but run the operator
// tree unstaged, as do memory-budgeted runs (a prefetching producer
// would charge the budget for batches the serial engine has not
// admitted yet, making degrade decisions depend on scheduling) and
// multi-session runs (claim acquisition and per-batch publication are
// serial protocol points). Traced runs build no stage either: a trace
// reports each operator's wall including its inputs', and readers take
// an operator's own time as its wall less its children's, which a
// producer running beside its consumer would make negative.
func (c *Context) maybeStage(in iterator, node plan.Node) iterator {
	if _, apply := node.(*plan.ReuseApply); !apply {
		return in
	}
	if c.workers() <= 1 || c.noPipeline > 0 || c.Faults != nil || c.Deadline > 0 ||
		c.Budget != nil || c.Sessions || c.Trace != nil {
		return in
	}
	return c.newStage(in)
}

// stopStages halts every pipeline stage of the current Run, waits for
// the producers to exit and returns every batch they buffered to the
// pool, so no goroutine outlives the query, no clock charge lands after
// Run returns and a failed Run leaks no batch. The stages stay listed
// until the next Run. Halting is deadlock-free bottom-up: a producer
// blocked on a full channel observes stop, and a producer blocked
// pulling from a nested stage is released when that stage's producer
// exits and closes its channel.
func (c *Context) stopStages() {
	for _, s := range c.stages {
		s.halt()
	}
	for _, s := range c.stages {
		<-s.exited
	}
	for _, s := range c.stages {
		for m := range s.out {
			if m.b != nil {
				c.putBatch(m.b)
			}
		}
	}
}
