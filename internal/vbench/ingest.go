package vbench

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"eva"
	"eva/internal/vision"
)

// The streaming-ingestion benchmark: frames arrive in batches on a
// live table while standing queries extend their materialized views
// from durable checkpoints. Three quantities form the committed
// baseline (BENCH_ingest.json): sustained ingest throughput in
// frames/s of wall clock, the checkpoint lag distribution (how many
// frames the slowest standing query trails the durable watermark,
// sampled after every producer batch), and the recovery cost — the
// wall time to reopen the stream and recover every checkpoint at
// increasing log lengths, which the checkpoint and watermark logs'
// folds keep flat rather than linear in history.

// ingestBenchQueries is the standing-query mix: a cheap per-frame
// count and a detector-backed filter, checkpointing independently.
var ingestBenchQueries = []struct {
	name      string
	sql       string
	threshold int64
}{
	{"every-frame", `SELECT id FROM live`, 6},
	{"cars", `SELECT id, label FROM live CROSS APPLY YoloTiny(frame) WHERE label = 'car'`, 3},
}

// IngestBenchConfig parameterizes RunIngestBench.
type IngestBenchConfig struct {
	Frames  int
	Batch   int
	Window  int64
	Cadence int64
	Workers int
	// RecoveryStops are the frame counts at which the bench closes and
	// reopens the stream to time checkpoint recovery.
	RecoveryStops []int
}

// DefaultIngestBench is the committed-baseline configuration.
func DefaultIngestBench() IngestBenchConfig {
	return IngestBenchConfig{
		Frames:        240,
		Batch:         8,
		Window:        8,
		Cadence:       8,
		Workers:       2,
		RecoveryStops: []int{60, 120, 240},
	}
}

// IngestRecoveryPoint is one close-and-reopen measurement.
type IngestRecoveryPoint struct {
	WatermarkFrames int64   `json:"watermark_frames"`
	ResumedLSN      int64   `json:"resumed_lsn"`
	ReopenWallMs    float64 `json:"reopen_wall_ms"`
}

// IngestResult is the JSON-serialized baseline (BENCH_ingest.json).
type IngestResult struct {
	Benchmark string `json:"benchmark"`
	Frames    int    `json:"frames"`
	Batch     int    `json:"batch"`
	Window    int64  `json:"window"`
	Cadence   int64  `json:"cadence"`
	Queries   int    `json:"queries"`

	WallMs       float64 `json:"wall_ms"`
	FramesPerSec float64 `json:"frames_per_sec"`

	CkptLagP50Frames int64 `json:"ckpt_lag_p50_frames"`
	CkptLagP99Frames int64 `json:"ckpt_lag_p99_frames"`

	Increments int64 `json:"increments"`
	Alerts     int   `json:"alerts"`
	SimNs      int64 `json:"sim_ns"`

	Recovery []IngestRecoveryPoint `json:"recovery"`
}

// ingestLagSample reads the slowest standing query's checkpoint
// distance behind the frames the producer has sent, in frames: queued
// batches the pump has not yet made durable plus the cadence
// remainder the queries have not yet folded in.
func ingestLagSample(stream *eva.Stream, sent int64) int64 {
	var worst int64
	for _, q := range stream.StandingQueries() {
		if lag := sent - q.LastLSN(); lag > worst {
			worst = lag
		}
	}
	return worst
}

// RunIngestBench drives the producer loop, pausing at each recovery
// stop to close the System and time a cold reopen of the same
// directory (checkpoint replay plus live-log recovery).
func RunIngestBench(cfg IngestBenchConfig) (*IngestResult, error) {
	dir, err := os.MkdirTemp("", "eva-ingest-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ds := vision.Dataset{
		Name: "live", Frames: cfg.Frames,
		Width: 320, Height: 240, Density: 4, Seed: 0xBE7C4,
	}
	open := func() (*eva.System, *eva.Stream, error) {
		sys, err := eva.Open(eva.Config{Dir: dir, Workers: cfg.Workers})
		if err != nil {
			return nil, nil, err
		}
		stream, err := sys.OpenStream(eva.StreamConfig{
			Table: "live", Dataset: ds, CadenceFrames: cfg.Cadence,
		})
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
		for _, q := range ingestBenchQueries {
			if _, err := stream.RegisterStandingQuery(q.name, q.sql, cfg.Window, q.threshold, nil); err != nil {
				sys.Close()
				return nil, nil, err
			}
		}
		return sys, stream, nil
	}

	sys, stream, err := open()
	if err != nil {
		return nil, err
	}
	defer func() { sys.Close() }()

	stops := append([]int(nil), cfg.RecoveryStops...)
	sort.Ints(stops)
	if len(stops) == 0 || stops[len(stops)-1] < cfg.Frames {
		stops = append(stops, cfg.Frames)
	}

	res := &IngestResult{
		Benchmark: "ingest-stream",
		Frames:    cfg.Frames, Batch: cfg.Batch,
		Window: cfg.Window, Cadence: cfg.Cadence,
		Queries: len(ingestBenchQueries),
	}
	var lags []int64
	var ingestWall time.Duration
	sent := 0
	for _, stop := range stops {
		if stop > cfg.Frames {
			stop = cfg.Frames
		}
		start := time.Now()
		for sent < stop {
			n := cfg.Batch
			if n > stop-sent {
				n = stop - sent
			}
			if err := stream.Ingest(n); err != nil {
				return nil, fmt.Errorf("vbench: ingest at frame %d: %w", sent, err)
			}
			sent += n
			lags = append(lags, ingestLagSample(stream, int64(sent)))
		}
		if err := stream.Drain(); err != nil {
			return nil, fmt.Errorf("vbench: drain at frame %d: %w", sent, err)
		}
		ingestWall += time.Since(start)

		// Cold recovery at this log length: fold this incarnation's
		// counters in (each reopen starts a fresh Stream), then close
		// and time the reopen (checkpoint replay + watermark replay +
		// standing-query re-registration).
		res.Increments += stream.Stats().Increments
		res.SimNs += int64(stream.SimulatedTime().Total())
		if err := sys.Close(); err != nil {
			return nil, fmt.Errorf("vbench: close at frame %d: %w", sent, err)
		}
		reopenStart := time.Now()
		sys, stream, err = open()
		if err != nil {
			return nil, fmt.Errorf("vbench: reopen at frame %d: %w", sent, err)
		}
		reopen := time.Since(reopenStart)
		var resumed int64
		for _, q := range stream.StandingQueries() {
			lsn := q.LastLSN()
			if resumed == 0 || lsn < resumed {
				resumed = lsn
			}
		}
		res.Recovery = append(res.Recovery, IngestRecoveryPoint{
			WatermarkFrames: stream.Stats().Watermark,
			ResumedLSN:      resumed,
			ReopenWallMs:    float64(reopen.Nanoseconds()) / 1e6,
		})
	}

	st := stream.Stats()
	for _, q := range stream.StandingQueries() {
		res.Alerts += len(q.Alerts())
	}
	res.WallMs = float64(ingestWall.Nanoseconds()) / 1e6
	if ingestWall > 0 {
		res.FramesPerSec = float64(cfg.Frames) / ingestWall.Seconds()
	}
	res.CkptLagP50Frames = percentile(lags, 50)
	res.CkptLagP99Frames = percentile(lags, 99)
	if st.Watermark != int64(cfg.Frames) {
		return nil, fmt.Errorf("vbench: watermark %d != frames %d", st.Watermark, cfg.Frames)
	}
	return res, sys.Close()
}

// ExpIngest is the cmd/vbench experiment wrapper.
func ExpIngest(ExpConfig) (Report, error) {
	res, err := RunIngestBench(DefaultIngestBench())
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d frames in batches of %d, %d standing queries (window %d, cadence %d)\n",
		res.Frames, res.Batch, res.Queries, res.Window, res.Cadence)
	fmt.Fprintf(&sb, "ingest %.0f frames/s wall, checkpoint lag p50 %d / p99 %d frames, %d increments, %d alerts\n",
		res.FramesPerSec, res.CkptLagP50Frames, res.CkptLagP99Frames, res.Increments, res.Alerts)
	for _, rp := range res.Recovery {
		fmt.Fprintf(&sb, "recovery at %d frames: reopen %.2fms, resumed from lsn %d\n",
			rp.WatermarkFrames, rp.ReopenWallMs, rp.ResumedLSN)
	}
	return Report{Text: sb.String(), Data: res}, nil
}
