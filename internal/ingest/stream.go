package ingest

import (
	"errors"
	"fmt"
	"sync"

	"eva/internal/core"
	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/parser"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/vision"
)

// Typed ingest errors; test with errors.Is.
var (
	// ErrFrameShed is returned by TryIngest when the bounded queue is
	// full even after standing-query degradation: the batch was shed,
	// nothing was appended.
	ErrFrameShed = errors.New("ingest: frame batch shed (queue full)")
	// ErrStreamClosed rejects operations on a closed stream.
	ErrStreamClosed = errors.New("ingest: stream closed")
	// ErrStreamDead rejects operations after a simulated crash killed
	// the stream; reopen the system to recover.
	ErrStreamDead = errors.New("ingest: stream unusable after simulated crash")
)

// deadError ties ErrStreamDead to the fault that caused it, so both
// errors.Is(err, ErrStreamDead) and faults.IsCrash(err) hold.
type deadError struct{ cause error }

func (e *deadError) Error() string {
	return fmt.Sprintf("%v: %v", ErrStreamDead, e.cause)
}

func (e *deadError) Unwrap() []error { return []error{ErrStreamDead, e.cause} }

// Session is what a standing query runs its deltas in: one client
// session of the system that owns the stream, so a delta is an
// ordinary statement — admitted, charged to the global clock, excluded
// by the system's maintenance passes and planned in the system's mode.
type Session interface {
	// Select executes one SELECT and returns its rows.
	Select(*parser.SelectStmt) (*types.Batch, error)
	// InjectFaults installs the session's fault injector (nil disables
	// injection).
	InjectFaults(*faults.Injector)
}

// Config configures one ingest stream.
type Config struct {
	// Engine holds the catalog, storage and batch pool the stream's
	// live table and checkpoints live in.
	Engine *core.Engine
	// NewSession opens the session a newly registered standing query
	// runs its deltas in.
	NewSession func() Session
	// Table is the live video table name.
	Table string
	// Dataset bounds the stream: its Frames field is the capacity.
	Dataset vision.Dataset
	// QueueDepth bounds the ingest queue (batches, not frames); a full
	// queue blocks Ingest and sheds TryIngest. Default 16.
	QueueDepth int
	// CadenceFrames is the standing-query refresh cadence: queries
	// advance in increments aligned to this grid, with the partial
	// tail deferred until more frames arrive (or Drain). Default 8.
	CadenceFrames int64
	// DegradeHighWater is the queue backlog at which the pump degrades
	// standing-query cadence (doubles it) to drain faster — the typed
	// degrade-before-shed backpressure policy. 0 disables degradation.
	DegradeHighWater int
}

// Stats is a snapshot of one stream's ingest counters.
type Stats struct {
	// Ingested is the number of frames durably appended.
	Ingested int64
	// Shed counts batches rejected by TryIngest with ErrFrameShed.
	Shed int64
	// Degraded counts pump cycles run at doubled cadence because the
	// backlog crossed DegradeHighWater.
	Degraded int64
	// Cycles counts pump cycles (one per ingested batch or barrier).
	Cycles int64
	// Increments counts standing-query delta executions.
	Increments int64
	// Watermark is the durable frame count.
	Watermark int64
}

// msg is one unit of pump work: a frame batch, or a zero-frame barrier
// (flush forces standing queries all the way to the watermark).
type msg struct {
	frames int
	flush  bool
	done   chan error
}

// Stream is one live table's ingestion pipeline: producers enqueue
// frame batches onto a bounded queue, and a single tracked pump
// goroutine serializes the durable append, the standing-query
// increments, their checkpoints and their notifications. One writer
// makes the whole path deterministic: every durable artifact advances
// in the same order on every run with the same inputs.
type Stream struct {
	cfg   Config
	eng   *core.Engine
	video *storage.Video
	clock *simclock.Clock // ingest-side charges (append, checkpoint, notify, retries)
	group server.Group
	queue chan msg

	// pmu guards producers' sends against Close closing the queue:
	// every enqueue holds it for reading, Close takes it for writing
	// once the closed flag stops new arrivals.
	pmu sync.RWMutex

	mu      sync.Mutex
	inj     *faults.Injector // guarded by mu
	queries []*StandingQuery // guarded by mu; registration order
	closed  bool             // guarded by mu
	dead    error            // guarded by mu; terminal crash, wrapped in deadError
	stats   Stats            // guarded by mu
}

// OpenStream opens a live table and starts its pump. The table's
// durable watermark (and each standing query's checkpoint) is
// recovered from a previous incarnation of the same storage root.
func OpenStream(cfg Config) (*Stream, error) {
	s, err := newStream(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newStream builds a stream without starting the pump (tests enqueue
// a deterministic backlog first).
func newStream(cfg Config) (*Stream, error) {
	if cfg.Engine == nil || cfg.NewSession == nil {
		return nil, fmt.Errorf("ingest: config needs an engine and a session factory")
	}
	if cfg.Table == "" {
		return nil, fmt.Errorf("ingest: config needs a table name")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CadenceFrames <= 0 {
		cfg.CadenceFrames = 8
	}
	// The table opens as a batch table does (core.Engine.OpenVideo): the
	// catalog learns it only once storage holds it, with the statistics
	// its record keeps.
	video, err := cfg.Engine.OpenVideo(cfg.Table, cfg.Dataset, true)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:   cfg,
		eng:   cfg.Engine,
		video: video,
		clock: &simclock.Clock{},
		queue: make(chan msg, cfg.QueueDepth),
	}
	s.stats.Watermark = video.Watermark()
	return s, nil
}

// start launches the pump on a tracked goroutine.
func (s *Stream) start() { s.group.Go(s.pump) }

// SetInjector installs the stream's deterministic fault injector:
// appends, checkpoint writes and notifications consult it, as do the
// delta executions of its standing queries. nil disables injection.
func (s *Stream) SetInjector(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
	for _, q := range s.queries {
		q.sess.InjectFaults(inj)
	}
}

// injector returns the current injector under the stream lock.
func (s *Stream) injector() *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj
}

// gate rejects operations on a closed or dead stream.
func (s *Stream) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStreamClosed
	}
	return s.dead
}

// markDead records the terminal crash error; first cause wins.
func (s *Stream) markDead(cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead == nil {
		s.dead = &deadError{cause: cause}
	}
	return s.dead
}

// deadErr returns the terminal error, if any.
func (s *Stream) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// Ingest enqueues n frames, blocking while the queue is full
// (backpressure propagates to the producer). It returns once the
// batch is queued, not once it is durable; durable failures surface
// on later calls and on Drain.
func (s *Stream) Ingest(n int) error {
	return s.enqueue(msg{frames: n}, true)
}

// TryIngest enqueues n frames without blocking: a full queue sheds the
// batch with ErrFrameShed. Shedding is the last resort — the pump
// degrades standing-query cadence at DegradeHighWater first.
func (s *Stream) TryIngest(n int) error {
	err := s.enqueue(msg{frames: n}, false)
	if errors.Is(err, ErrFrameShed) {
		s.mu.Lock()
		s.stats.Shed++
		s.mu.Unlock()
	}
	return err
}

// Drain enqueues a flush barrier and waits for the pump to process
// everything queued before it — all frames durable, every standing
// query advanced to the watermark, checkpoints written. It returns the
// stream's terminal error, if any.
func (s *Stream) Drain() error {
	done := make(chan error, 1)
	if err := s.enqueue(msg{flush: true, done: done}, true); err != nil {
		return err
	}
	return <-done
}

// enqueue places one message on the queue under the producer lock.
func (s *Stream) enqueue(m msg, wait bool) error {
	if err := s.gate(); err != nil {
		return err
	}
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	// Re-check under pmu: Close sets closed before taking pmu for
	// writing, so a closed stream can no longer reach the send.
	if err := s.gate(); err != nil {
		return err
	}
	if wait {
		s.queue <- m
		return nil
	}
	select {
	case s.queue <- m:
		return nil
	default:
		return ErrFrameShed
	}
}

// Close stops the stream: new operations fail with ErrStreamClosed,
// the pump drains everything already queued, and every goroutine it
// owns has returned when Close does. Idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	// No producer is in-flight past the closed check once we hold pmu
	// for writing, so closing the channel cannot race a send.
	s.pmu.Lock()
	close(s.queue)
	s.pmu.Unlock()
	s.group.Wait()
	var first error
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.queries {
		if err := q.ckpt.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the stream's counters.
func (s *Stream) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Watermark = s.video.Watermark()
	return st
}

// SimulatedTime returns the ingest-side virtual time (appends,
// checkpoints, notifications, retry backoffs).
func (s *Stream) SimulatedTime() simclock.Breakdown {
	return s.clock.Since(simclock.Snapshot{})
}

// Queries returns the registered standing queries in registration
// order.
func (s *Stream) Queries() []*StandingQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StandingQuery, len(s.queries))
	copy(out, s.queries)
	return out
}

// pump is the single consumer: it serializes append → increment →
// checkpoint → notify so the durable logs advance identically on
// every run. It runs on a tracked goroutine and exits when Close
// closes the queue.
func (s *Stream) pump() {
	for m := range s.queue {
		err := s.deadErr()
		if err == nil {
			err = s.cycle(m)
		}
		if m.done != nil {
			m.done <- err
		}
	}
}

// cycle processes one message: durably append its frames, then advance
// every standing query along the cadence grid (to the watermark for a
// flush barrier).
func (s *Stream) cycle(m msg) error {
	s.mu.Lock()
	s.stats.Cycles++
	s.mu.Unlock()
	if m.frames > 0 {
		if err := s.appendFrames(m.frames); err != nil {
			return err
		}
	}
	// Backpressure policy: degrade before shedding. When the backlog
	// crosses the high-water mark the pump doubles the standing-query
	// cadence for this cycle — increments get coarser (cheaper per
	// frame), the queue drains faster, and only a still-full queue
	// sheds (in TryIngest). Degradation changes increment boundaries
	// only, never results: the final state is cadence-invariant.
	cadence := s.cfg.CadenceFrames
	if s.cfg.DegradeHighWater > 0 && len(s.queue) >= s.cfg.DegradeHighWater {
		cadence *= 2
		s.mu.Lock()
		s.stats.Degraded++
		s.mu.Unlock()
	}
	wm := s.video.Watermark()
	target := wm
	if !m.flush {
		target = wm - wm%cadence
	}
	for _, q := range s.Queries() {
		if err := q.advance(target, cadence); err != nil {
			if faults.IsCrash(err) {
				return s.markDead(err)
			}
			return err
		}
	}
	return nil
}

// appendFrames durably advances the watermark under the store's one
// retry loop, whose backoff goes to the stream's clock. The ingest cost
// is charged per frame — not per batch — so an interrupted-and-resumed
// ingestion charges exactly what an uninterrupted one does.
func (s *Stream) appendFrames(n int) error {
	err := s.eng.Store.Retry(s.clock, func() error {
		_, err := s.video.AppendFrames(n, s.injector())
		return err
	})
	if faults.IsCrash(err) {
		return s.markDead(err)
	}
	if err != nil {
		return err
	}
	s.clock.ChargePerTuple(simclock.CatMaterialize, costs.IngestFrameCost, n)
	s.mu.Lock()
	s.stats.Ingested += int64(n)
	s.mu.Unlock()
	return nil
}
