package vbench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"eva"
	"eva/internal/vision"
)

// The serving-layer load benchmark: one System under admission control
// serves an open-loop fleet of concurrent sessions issuing a
// reuse-heavy exploratory mix against a shared table. With more
// sessions than concurrency tokens the admission queue fills, queued
// queries accrue virtual-clock wait, and the overflow is shed with the
// typed errors. The committed baseline is BENCH_server.json: admitted
// and shed counts, virtual queue-wait percentiles, and throughput.

// serverWorkload is the per-session query mix. Overlapping detector
// ranges on one shared table make the run exercise cross-session view
// reuse and the per-key claims protocol, not just admission.
var serverWorkload = []string{
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 80`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60 AND label = 'car'`,
	`SELECT id, seconds FROM video WHERE id < 100`,
	`SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 50`,
}

// ServerBenchConfig parameterizes RunServerBench.
type ServerBenchConfig struct {
	Sessions          int
	QueriesPerSession int
	MaxConcurrent     int
	QueueDepth        int
	// QueueTimeout is the virtual-clock wait budget of a queued query.
	QueueTimeout time.Duration
	Workers      int
	// MemoryBudget caps each query's materialized bytes (0 = unlimited).
	MemoryBudget int64
}

// DefaultServerBench is the committed-baseline configuration: 8
// sessions contending for 2 tokens with a short queue, so all three
// admission outcomes (admitted, shed on overload, shed on virtual
// timeout) appear in one run.
func DefaultServerBench() ServerBenchConfig {
	return ServerBenchConfig{
		Sessions:          8,
		QueriesPerSession: 12,
		MaxConcurrent:     2,
		QueueDepth:        2,
		QueueTimeout:      4 * time.Second,
		Workers:           2,
	}
}

// ServerResult is the JSON-serialized baseline (BENCH_server.json).
type ServerResult struct {
	Benchmark         string `json:"benchmark"`
	Dataset           string `json:"dataset"`
	Sessions          int    `json:"sessions"`
	QueriesPerSession int    `json:"queries_per_session"`
	MaxConcurrent     int    `json:"max_concurrent"`
	QueueDepth        int    `json:"queue_depth"`
	QueueTimeoutNs    int64  `json:"queue_timeout_ns"`

	Queries      int `json:"queries"`
	Succeeded    int `json:"succeeded"`
	ShedOverload int `json:"shed_overload"`
	ShedTimeout  int `json:"shed_timeout"`

	QueueWaitP50Ns int64 `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns int64 `json:"queue_wait_p99_ns"`

	SimNs         int64   `json:"sim_ns"`
	WallMs        float64 `json:"wall_ms"`
	ThroughputQPS float64 `json:"throughput_qps"`
}

// RunServerBench drives the open-loop fleet and collects admission
// outcomes. Any error other than the typed shedding errors fails the
// benchmark: under pure load (no fault injection) queries either
// succeed or are shed, never break.
func RunServerBench(cfg ServerBenchConfig) (*ServerResult, error) {
	sys, err := eva.Open(eva.Config{
		Workers:             cfg.Workers,
		MaxConcurrent:       cfg.MaxConcurrent,
		AdmissionQueueDepth: cfg.QueueDepth,
		QueueTimeout:        cfg.QueueTimeout,
		MemoryBudget:        cfg.MemoryBudget,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		return nil, err
	}

	type tally struct{ ok, overload, timeout int }
	tallies := make([]tally, cfg.Sessions)
	errCh := make(chan error, cfg.Sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < cfg.Sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sess := sys.NewSession()
			for i := 0; i < cfg.QueriesPerSession; i++ {
				q := serverWorkload[(k+i)%len(serverWorkload)]
				_, err := sess.Exec(q)
				switch {
				case err == nil:
					tallies[k].ok++
				case errors.Is(err, eva.ErrOverloaded):
					tallies[k].overload++
				case errors.Is(err, eva.ErrQueueTimeout):
					tallies[k].timeout++
				default:
					errCh <- fmt.Errorf("session %d query %d: %w", k, i, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := &ServerResult{
		Benchmark:         "server-load",
		Dataset:           vision.Jackson.Name,
		Sessions:          cfg.Sessions,
		QueriesPerSession: cfg.QueriesPerSession,
		MaxConcurrent:     cfg.MaxConcurrent,
		QueueDepth:        cfg.QueueDepth,
		QueueTimeoutNs:    int64(cfg.QueueTimeout),
		Queries:           cfg.Sessions * cfg.QueriesPerSession,
		SimNs:             int64(sys.SimulatedTime()),
		WallMs:            float64(wall.Nanoseconds()) / 1e6,
	}
	for _, tl := range tallies {
		res.Succeeded += tl.ok
		res.ShedOverload += tl.overload
		res.ShedTimeout += tl.timeout
	}
	if got := res.Succeeded + res.ShedOverload + res.ShedTimeout; got != res.Queries {
		return nil, fmt.Errorf("vbench: server outcomes %d != queries %d", got, res.Queries)
	}
	if res.Succeeded == 0 {
		return nil, fmt.Errorf("vbench: server bench succeeded nothing — saturated beyond usefulness")
	}
	st := sys.AdmissionStats()
	res.QueueWaitP50Ns = int64(st.QueueWaitP50)
	res.QueueWaitP99Ns = int64(st.QueueWaitP99)
	if wall > 0 {
		res.ThroughputQPS = float64(res.Succeeded) / wall.Seconds()
	}
	return res, nil
}

// ExpServer is the cmd/vbench experiment wrapper.
func ExpServer(ExpConfig) (Report, error) {
	res, err := RunServerBench(DefaultServerBench())
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d sessions × %d queries against %d tokens (queue %d, virtual timeout %s)\n",
		res.Sessions, res.QueriesPerSession, res.MaxConcurrent, res.QueueDepth,
		time.Duration(res.QueueTimeoutNs))
	fmt.Fprintf(&sb, "succeeded %d, shed %d overload + %d timeout — %.1f q/s wall\n",
		res.Succeeded, res.ShedOverload, res.ShedTimeout, res.ThroughputQPS)
	fmt.Fprintf(&sb, "virtual queue wait p50 %s, p99 %s\n",
		time.Duration(res.QueueWaitP50Ns).Round(time.Microsecond),
		time.Duration(res.QueueWaitP99Ns).Round(time.Microsecond))
	return Report{Text: sb.String(), Data: res}, nil
}
