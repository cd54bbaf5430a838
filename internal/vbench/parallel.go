package vbench

import (
	"fmt"
	"strings"
	"time"

	"eva"
	"eva/internal/costs"
	"eva/internal/vision"
)

// The parallel scan+UDF benchmark: a latency-bound scalar UDF (its Go
// impl sleeps, modeling a blocking model-serving RPC or accelerator
// inference call) applied to every frame of a scan, measured wall-clock
// at several worker counts. Because the UDF blocks rather than burns
// CPU, the worker pool overlaps invocations even on a single core —
// exactly the regime EVA's NN-inference UDFs live in. The simulated
// time must come out identical at every worker count (the determinism
// contract); only wall time may change.

// ParallelCell is one (worker count) measurement.
type ParallelCell struct {
	Workers int `json:"workers"`
	// WallNs is the best-of-iterations wall time of the query.
	WallNs int64 `json:"wall_ns"`
	// NsPerOp is WallNs divided by the number of UDF invocations.
	NsPerOp int64 `json:"ns_per_op"`
	// Speedup is serial wall time / this wall time.
	Speedup float64 `json:"speedup"`
	// ModeledSpeedup is the costs.AmdahlSpeedup prediction for this
	// worker count given the workload's parallel fraction.
	ModeledSpeedup float64 `json:"modeled_speedup"`
	// SimNs is the query's simulated time — identical in every cell.
	SimNs int64 `json:"sim_ns"`
}

// ParallelResult is the JSON-serialized benchmark baseline
// (BENCH_parallel.json).
type ParallelResult struct {
	Benchmark string         `json:"benchmark"`
	Dataset   string         `json:"dataset"`
	Frames    int            `json:"frames"`
	SleepMs   float64        `json:"udf_sleep_ms"`
	Iters     int            `json:"iters"`
	Cells     []ParallelCell `json:"cells"`
}

// ParallelBenchConfig parameterizes RunParallelBench.
type ParallelBenchConfig struct {
	Frames  int           // scan length (UDF invocations per run)
	Sleep   time.Duration // per-invocation blocking time of the UDF
	Iters   int           // runs per cell; best wall time wins
	Workers []int         // worker counts to measure
}

// DefaultParallelBench is the committed-baseline configuration.
func DefaultParallelBench() ParallelBenchConfig {
	return ParallelBenchConfig{
		Frames:  200,
		Sleep:   2 * time.Millisecond,
		Iters:   3,
		Workers: []int{1, 2, 4, 8},
	}
}

// RunParallelBench measures the parallel executor. Views are dropped
// between iterations so every run evaluates the UDF afresh — reuse
// would otherwise serve the second iteration from the materialized
// view and there would be nothing left to parallelize.
func RunParallelBench(cfg ParallelBenchConfig) (*ParallelResult, error) {
	res := &ParallelResult{
		Benchmark: "parallel-scan-udf",
		Dataset:   vision.Jackson.Name,
		Frames:    cfg.Frames,
		SleepMs:   float64(cfg.Sleep) / float64(time.Millisecond),
		Iters:     cfg.Iters,
	}
	var serialWall time.Duration
	var serialSim int64
	for _, workers := range cfg.Workers {
		sys, err := eva.Open(eva.Config{Workers: workers})
		if err != nil {
			return nil, err
		}
		wall, simNs, err := runParallelCell(sys, cfg)
		sys.Close()
		if err != nil {
			return nil, err
		}
		if workers <= 1 {
			serialWall, serialSim = wall, simNs
		}
		if serialSim != 0 && simNs != serialSim {
			return nil, fmt.Errorf("vbench: simulated time varies with workers: %d ns at %d workers, %d ns serial",
				simNs, workers, serialSim)
		}
		cell := ParallelCell{
			Workers: workers,
			WallNs:  wall.Nanoseconds(),
			NsPerOp: wall.Nanoseconds() / int64(cfg.Frames),
			SimNs:   simNs,
			// The sleeping UDF dominates; everything else (scan, filter,
			// result assembly) is the serial remainder. Estimate the
			// parallel fraction from the serial run's composition.
			ModeledSpeedup: costs.AmdahlSpeedup(parallelFraction(cfg, serialWall), workers),
		}
		if serialWall > 0 && wall > 0 {
			cell.Speedup = float64(serialWall) / float64(wall)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// parallelFraction estimates the fraction of the serial run spent in
// the parallelizable UDF invocations (frames × sleep over total wall).
func parallelFraction(cfg ParallelBenchConfig, serialWall time.Duration) float64 {
	if serialWall <= 0 {
		return 1
	}
	udf := time.Duration(cfg.Frames) * cfg.Sleep
	f := float64(udf) / float64(serialWall)
	if f > 1 {
		f = 1
	}
	return f
}

func runParallelCell(sys *eva.System, cfg ParallelBenchConfig) (time.Duration, int64, error) {
	if _, err := sys.Exec(`LOAD VIDEO 'jackson' INTO video`); err != nil {
		return 0, 0, err
	}
	_, err := sys.Exec(`CREATE UDF SlowNet
		INPUT  = (frame NDARRAY UINT8(3, ANYDIM, ANYDIM))
		OUTPUT = (slownet_out BOOLEAN)
		IMPL   = 'bench:sleep'
		LOGICAL_TYPE = SlowNet
		PROPERTIES = ('COST_MS' = '2')`)
	if err != nil {
		return 0, 0, err
	}
	sys.RegisterScalarImpl("SlowNet", func(args []eva.Datum) (eva.Datum, error) {
		time.Sleep(cfg.Sleep)
		return eva.NewBool(true), nil
	})
	query := fmt.Sprintf(`SELECT id FROM video WHERE id < %d AND SlowNet(frame) = TRUE`, cfg.Frames)

	best := time.Duration(0)
	var simNs int64
	for i := 0; i < cfg.Iters; i++ {
		// A clean reuse slate per iteration: with the view intact the
		// next run would probe instead of evaluate.
		if _, err := sys.Exec(`DROP VIEWS`); err != nil {
			return 0, 0, err
		}
		res, err := sys.Exec(query)
		if err != nil {
			return 0, 0, err
		}
		if res.Rows.Len() != cfg.Frames {
			return 0, 0, fmt.Errorf("vbench: parallel bench returned %d rows, want %d", res.Rows.Len(), cfg.Frames)
		}
		if best == 0 || res.WallTime < best {
			best = res.WallTime
		}
		if i == 0 {
			simNs = int64(res.SimTime)
		} else if int64(res.SimTime) != simNs {
			return 0, 0, fmt.Errorf("vbench: simulated time varies across iterations: %d vs %d", res.SimTime, simNs)
		}
	}
	return best, simNs, nil
}

// ExpParallel is the cmd/vbench experiment wrapper: it runs the
// benchmark and renders a table plus the JSON baseline.
func ExpParallel(ExpConfig) (Report, error) {
	res, err := RunParallelBench(DefaultParallelBench())
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d frames × %.1f ms blocking UDF, best of %d (sim time invariant: %s)\n",
		res.Frames, res.SleepMs, res.Iters, time.Duration(res.Cells[0].SimNs).Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-8s | %12s | %10s | %8s | %8s\n", "Workers", "wall", "ns/op", "speedup", "modeled")
	sb.WriteString(strings.Repeat("-", 58) + "\n")
	for _, c := range res.Cells {
		fmt.Fprintf(&sb, "%-8d | %12s | %10d | %7.2fx | %7.2fx\n",
			c.Workers, time.Duration(c.WallNs).Round(time.Millisecond), c.NsPerOp, c.Speedup, c.ModeledSpeedup)
	}
	return Report{Text: sb.String(), Data: res}, nil
}
