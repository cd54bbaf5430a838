package eva

import (
	"eva/internal/faults"
	"eva/internal/ingest"
	"eva/internal/simclock"
)

// Streaming ingestion types re-exported from internal/ingest.
type (
	// StandingQuery is a registered SELECT incrementally maintained
	// over a stream from a durable checkpoint.
	StandingQuery = ingest.StandingQuery
	// StreamAlert is one standing-query window notification.
	StreamAlert = ingest.Alert
	// StreamStats snapshots a stream's ingest counters.
	StreamStats = ingest.Stats
)

// Typed streaming errors; test with errors.Is.
var (
	// ErrFrameShed is returned by TryIngest when the ingest queue is
	// full even after standing-query degradation.
	ErrFrameShed = ingest.ErrFrameShed
	// ErrStreamClosed rejects operations on a closed stream.
	ErrStreamClosed = ingest.ErrStreamClosed
	// ErrStreamDead rejects operations after a simulated crash killed
	// the stream; reopen the System on the same Dir to recover.
	ErrStreamDead = ingest.ErrStreamDead
)

// StreamConfig configures a live video table opened with OpenStream.
type StreamConfig struct {
	// Table is the live table name.
	Table string
	// Dataset bounds the stream: its Frames field is the capacity.
	Dataset Dataset
	// QueueDepth bounds the ingest queue in batches (default 16); a
	// full queue blocks Ingest and sheds TryIngest with ErrFrameShed.
	QueueDepth int
	// CadenceFrames is the standing-query refresh cadence (default 8).
	CadenceFrames int64
	// DegradeHighWater is the backlog at which standing-query cadence
	// degrades (doubles) before any frame is shed. 0 disables.
	DegradeHighWater int
}

// Stream is a live video table with crash-safe streaming ingestion:
// producers append frames over (virtual) time, standing queries extend
// their materialized views incrementally from durable checkpoints, and
// a crash at any point resumes exactly-once after reopening the System
// on the same directory. See DESIGN.md §12 for the failure model.
type Stream struct {
	st *ingest.Stream
}

// OpenStream opens (or, on an existing storage directory, recovers) a
// live table and starts its ingestion pump. Each standing query runs
// its deltas as statements of a Session of its own, so they are
// admitted, planned in Config.Mode, charged to the System's clock and
// given Config.MemoryBudget like any statement. The Stream is owned by
// the System: Close-ing the System drains and closes it.
func (s *System) OpenStream(cfg StreamConfig) (*Stream, error) {
	// The lifecycle lock keeps table registration out of scrub, evict
	// and ResetMetrics passes; the pump it starts takes qmu per delta.
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	s.smu.Lock()
	defer s.smu.Unlock()
	// Close takes the stream list before it flips closed, so this flag
	// is the one that says no stream may open any more.
	if s.streamsClosed {
		return nil, ErrClosed
	}
	st, err := ingest.OpenStream(ingest.Config{
		Engine:           s.eng,
		NewSession:       func() ingest.Session { return s.NewSession() },
		Table:            cfg.Table,
		Dataset:          cfg.Dataset,
		QueueDepth:       cfg.QueueDepth,
		CadenceFrames:    cfg.CadenceFrames,
		DegradeHighWater: cfg.DegradeHighWater,
	})
	if err != nil {
		return nil, err
	}
	w := &Stream{st: st}
	s.streams = append(s.streams, w)
	return w, nil
}

// Ingest enqueues n frames, blocking while the queue is full. It
// returns once the batch is queued; durability failures surface on
// later calls and on Drain.
func (st *Stream) Ingest(n int) error { return st.st.Ingest(n) }

// TryIngest enqueues n frames without blocking; a full queue sheds the
// batch with ErrFrameShed.
func (st *Stream) TryIngest(n int) error { return st.st.TryIngest(n) }

// Drain waits until everything queued so far is durable and every
// standing query has advanced to the watermark. It returns the
// stream's terminal error, if any.
func (st *Stream) Drain() error { return st.st.Drain() }

// Close stops the stream, draining queued work first. Idempotent; the
// System also closes its streams on System.Close.
func (st *Stream) Close() error { return st.st.Close() }

// RegisterStandingQuery attaches a standing SELECT: result rows are
// counted per tumbling window of windowFrames frames, and the first
// time a window reaches threshold an alert fires (onAlert may be nil).
// A previous incarnation's checkpoint under the same name is recovered.
func (st *Stream) RegisterStandingQuery(name, sql string, windowFrames, threshold int64, onAlert func(StreamAlert)) (*StandingQuery, error) {
	return st.st.Register(name, sql, windowFrames, threshold, onAlert)
}

// injectFaults installs the stream's deterministic fault injector
// (appends, checkpoints, notifications, and standing-query deltas). The
// resilience tests use it.
func (st *Stream) injectFaults(inj *faults.Injector) { st.st.SetInjector(inj) }

// Stats snapshots the stream's ingest counters.
func (st *Stream) Stats() StreamStats { return st.st.Stats() }

// StandingQueries returns the registered standing queries.
func (st *Stream) StandingQueries() []*StandingQuery { return st.st.Queries() }

// SimulatedTime returns the ingest-side virtual time breakdown
// (appends, checkpoints, notifications, and the retry backoff of the
// watermark appends, checkpoint writes and notifications). Standing-
// query deltas are statements: their time is in System.SimulatedTime.
func (st *Stream) SimulatedTime() simclock.Breakdown { return st.st.SimulatedTime() }

// closeStreams drains and closes every stream opened on this System;
// no stream opens after it.
func (s *System) closeStreams() error {
	s.smu.Lock()
	streams := s.streams
	s.streams, s.streamsClosed = nil, true
	s.smu.Unlock()
	var first error
	for _, st := range streams {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
