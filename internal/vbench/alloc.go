package vbench

// The allocation benchmark behind BENCH_alloc.json: the pooled-batch
// lifecycle (DESIGN.md §13) promises a steady-state warm hot path —
// scan → filter → apply served from a materialized view — that
// performs ~zero heap allocations per row. This benchmark measures
// that promise directly with runtime.MemStats malloc deltas, snapshots
// the batch-pool counters, and cross-checks that pooling is
// observationally invisible: a pooled/unpooled × worker-count matrix
// whose result digests must all be byte-identical.
//
// The per-row rate is measured as a *marginal*: the same warm query at
// two scan lengths, allocations divided by the extra rows. Per-query
// overhead (parse, optimize, plan, result assembly) cancels out, so
// the number isolates exactly the per-row cost the pool is supposed to
// eliminate.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"

	"eva"
	"eva/internal/vision"
)

// AllocCell is one measured mode: the reuse engine with view-serving,
// the FunCache baseline with a warm tuple cache, or the evaluate path
// (no reuse: every row runs its UDFs).
type AllocCell struct {
	Mode string `json:"mode"`
	// AllocsPerRow is the marginal allocation rate:
	// (allocs(long) − allocs(short)) / (rows(long) − rows(short)). A row
	// is a scanned frame on the warm paths and a detector output row —
	// which is also one classifier invocation — on the evaluate path.
	AllocsPerRow float64 `json:"allocs_per_row"`
	// BytesPerRow is the marginal heap traffic in bytes per row.
	BytesPerRow float64 `json:"bytes_per_row"`
	// AllocsPerRunShort/Long are the absolute per-query averages the
	// marginal is derived from (per-query overhead included).
	AllocsPerRunShort float64 `json:"allocs_per_run_short"`
	AllocsPerRunLong  float64 `json:"allocs_per_run_long"`
	// Pool traffic accumulated over the cell's runs.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	PoolPuts   int64 `json:"pool_puts"`
}

// AllocMatrixCell is one pooled/unpooled differential measurement: the
// digest covers cold and warm result rows, view row counts, reuse
// counters and simulated time, and must be identical in every cell.
type AllocMatrixCell struct {
	Pooled  bool   `json:"pooled"`
	Workers int    `json:"workers"`
	Digest  string `json:"digest"`
}

// AllocResult is the JSON-serialized baseline (BENCH_alloc.json).
type AllocResult struct {
	Benchmark   string            `json:"benchmark"`
	Dataset     string            `json:"dataset"`
	ShortFrames int               `json:"short_frames"`
	LongFrames  int               `json:"long_frames"`
	WarmRuns    int               `json:"warm_runs"`
	Cells       []AllocCell       `json:"cells"`
	Matrix      []AllocMatrixCell `json:"matrix"`
}

// AllocBenchConfig parameterizes RunAllocBench.
type AllocBenchConfig struct {
	ShortFrames int // scan length of the short query
	LongFrames  int // scan length of the long query
	WarmRuns    int // measured warm repetitions per query
}

// DefaultAllocBench is the committed-baseline configuration.
func DefaultAllocBench() AllocBenchConfig {
	return AllocBenchConfig{ShortFrames: 512, LongFrames: 2048, WarmRuns: 20}
}

// WarmAllocGate is the acceptance threshold on the reuse engine's
// marginal warm-path allocation rate: per-row work must be
// allocation-free, with a small allowance for per-batch amortized
// bookkeeping (one view snapshot header and a few slice headers per
// 256-row batch).
const WarmAllocGate = 0.05

// EvalPathAllocGate is the threshold on the evaluate path's marginal
// allocation rate per detector output row: the row's bbox string is the
// one value that has to be made, the classifier call on the row makes
// none, and the rest is the allowance for per-batch bookkeeping and the
// result rows.
const EvalPathAllocGate = 1.1

// allocSetup loads the dataset and registers the cheap deterministic
// predicate UDF the benchmark filters on.
func allocSetup(sys *eva.System) error {
	if _, err := sys.Exec(`LOAD VIDEO 'jackson' INTO video`); err != nil {
		return err
	}
	_, err := sys.Exec(`CREATE UDF AllocNet
		INPUT  = (frame NDARRAY UINT8(3, ANYDIM, ANYDIM))
		OUTPUT = (allocnet_out BOOLEAN)
		IMPL   = 'bench:parity'
		LOGICAL_TYPE = AllocNet
		PROPERTIES = ('COST_MS' = '1')`)
	if err != nil {
		return err
	}
	sys.RegisterScalarImpl("AllocNet", func(args []eva.Datum) (eva.Datum, error) {
		return eva.NewBool(len(args[0].Bytes())%2 == 0), nil
	})
	return nil
}

func allocQuery(frames int) string {
	return fmt.Sprintf(`SELECT id FROM video WHERE id < %d AND AllocNet(frame) = TRUE`, frames)
}

// allocWorkload is what one cell measures.
type allocWorkload struct {
	name  string
	mode  eva.SystemMode
	setup func(*eva.System) error
	query func(frames int) string
	// rows is how many rows one run of the query over that many frames
	// puts through the measured path.
	rows func(sys *eva.System, frames int) (float64, error)
}

func scannedFrames(_ *eva.System, frames int) (float64, error) { return float64(frames), nil }

// viewServed is the warm reuse path's workload: the predicate UDF's
// view serves every scanned frame.
var viewServed = allocWorkload{name: "eva-view-served", mode: eva.ModeEVA, setup: allocSetup, query: allocQuery, rows: scannedFrames}

func evalPathQuery(frames int) string {
	return fmt.Sprintf(`SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < %d AND CarType(frame, bbox) = 'Nissan'`, frames)
}

// evalPath is the evaluate path's workload: a detector and one
// classifier over a dense video with reuse off, so every frame is
// decoded, detected and formatted and every detection classified.
var evalPath = allocWorkload{
	name: "eval-path",
	mode: eva.ModeNoReuse,
	setup: func(sys *eva.System) error {
		_, err := sys.Exec(`LOAD VIDEO 'short-ua-detrac' INTO video`)
		return err
	},
	query: evalPathQuery,
	// Every detector output row is one CarType evaluation.
	rows: func(sys *eva.System, frames int) (float64, error) {
		before := sys.UDFCounters()["cartype"].Evaluated
		res, err := sys.Exec(evalPathQuery(frames))
		if err != nil {
			return 0, err
		}
		sys.Recycle(res.Rows)
		return float64(sys.UDFCounters()["cartype"].Evaluated - before), nil
	},
}

// measureWarm returns the average per-run malloc and byte deltas of
// the warm query, after a cold run has materialized its view (or
// warmed the tuple cache) and one discarded warm run has let pooled
// capacities reach steady state.
func measureWarm(sys *eva.System, query string, runs int) (allocs, bytes float64, err error) {
	for i := 0; i < 2; i++ { // cold (materialize) + capacity warm-up
		res, err := sys.Exec(query)
		if err != nil {
			return 0, 0, err
		}
		sys.Recycle(res.Rows)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		res, err := sys.Exec(query)
		if err != nil {
			return 0, 0, err
		}
		sys.Recycle(res.Rows)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs), nil
}

// RunWarmPathCell and RunEvalPathCell measure the two gated cells on
// their own — the live half of the gate (TestWarmPathAllocsPerRow,
// TestEvalPathAllocsPerRow).
func RunWarmPathCell(cfg AllocBenchConfig) (AllocCell, error) { return runAllocCell(viewServed, cfg) }
func RunEvalPathCell(cfg AllocBenchConfig) (AllocCell, error) { return runAllocCell(evalPath, cfg) }

// runAllocCell measures one workload end to end in a fresh system.
func runAllocCell(w allocWorkload, cfg AllocBenchConfig) (AllocCell, error) {
	sys, err := eva.Open(eva.Config{Mode: w.mode})
	if err != nil {
		return AllocCell{}, err
	}
	defer sys.Close()
	if err := w.setup(sys); err != nil {
		return AllocCell{}, err
	}
	short, _, err := measureWarm(sys, w.query(cfg.ShortFrames), cfg.WarmRuns)
	if err != nil {
		return AllocCell{}, err
	}
	long, longBytes, err := measureWarm(sys, w.query(cfg.LongFrames), cfg.WarmRuns)
	if err != nil {
		return AllocCell{}, err
	}
	shortBytes := 0.0
	if short2, b, err := measureWarm(sys, w.query(cfg.ShortFrames), cfg.WarmRuns); err == nil {
		// Re-measure short after long so both queries' capacities are
		// steady; keep the smaller of the two short samples.
		if short2 < short {
			short = short2
		}
		shortBytes = b
	} else {
		return AllocCell{}, err
	}
	shortRows, err := w.rows(sys, cfg.ShortFrames)
	if err != nil {
		return AllocCell{}, err
	}
	longRows, err := w.rows(sys, cfg.LongFrames)
	if err != nil {
		return AllocCell{}, err
	}
	rows := longRows - shortRows
	st := sys.PoolStats()
	return AllocCell{
		Mode:              w.name,
		AllocsPerRow:      (long - short) / rows,
		BytesPerRow:       (longBytes - shortBytes) / rows,
		AllocsPerRunShort: short,
		AllocsPerRunLong:  long,
		PoolHits:          st.Hits,
		PoolMisses:        st.Misses,
		PoolPuts:          st.Puts,
	}, nil
}

// allocMatrixDigest runs the workload cold and warm in one fresh
// system and digests everything a client observes.
func allocMatrixDigest(pooled bool, workers, frames int) (string, error) {
	sys, err := eva.Open(eva.Config{Workers: workers, DisablePooling: !pooled})
	if err != nil {
		return "", err
	}
	defer sys.Close()
	if err := allocSetup(sys); err != nil {
		return "", err
	}
	q := allocQuery(frames)
	rows, answered := runQueries(sys, []string{q, q}) // cold then warm
	if answered != 2 {
		return "", fmt.Errorf("a matrix query failed:\n%s", rows)
	}
	state := fmt.Sprintf("hit %.6f total %d\n", sys.HitPercentage(), sys.SimulatedTime())
	return fmt.Sprintf("%x", sha256.Sum256([]byte(rows+sortedLines("view", sys.ViewRows())+state))), nil
}

// RunAllocBench measures the warm-path allocation rates, snapshots the
// pool counters, and verifies the pooled/unpooled differential matrix.
// It fails if the reuse engine's marginal rate exceeds WarmAllocGate
// or if any matrix digest diverges.
func RunAllocBench(cfg AllocBenchConfig) (*AllocResult, error) {
	res := &AllocResult{
		Benchmark:   "pooled-batch-alloc",
		Dataset:     vision.Jackson.Name,
		ShortFrames: cfg.ShortFrames,
		LongFrames:  cfg.LongFrames,
		WarmRuns:    cfg.WarmRuns,
	}
	for _, w := range []allocWorkload{
		viewServed,
		{name: "funcache-warm", mode: eva.ModeFunCache, setup: allocSetup, query: allocQuery, rows: scannedFrames},
		evalPath,
	} {
		cell, err := runAllocCell(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("vbench: alloc cell %s: %w", w.name, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	if got := res.Cells[0].AllocsPerRow; got > WarmAllocGate {
		return nil, fmt.Errorf("vbench: warm view-served path allocates %.4f/row (gate %.2f)", got, WarmAllocGate)
	}
	if got := res.Cells[2].AllocsPerRow; got > EvalPathAllocGate {
		return nil, fmt.Errorf("vbench: evaluate path allocates %.4f per detector row (gate %.2f)", got, EvalPathAllocGate)
	}
	if res.Cells[0].PoolHits == 0 {
		return nil, fmt.Errorf("vbench: pool recorded no hits — the pooled lifecycle is not engaged")
	}
	var first string
	for _, pooled := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			d, err := allocMatrixDigest(pooled, w, cfg.ShortFrames)
			if err != nil {
				return nil, fmt.Errorf("vbench: alloc matrix pooled=%v workers=%d: %w", pooled, w, err)
			}
			if first == "" {
				first = d
			} else if d != first {
				return nil, fmt.Errorf("vbench: alloc matrix digest diverged at pooled=%v workers=%d", pooled, w)
			}
			res.Matrix = append(res.Matrix, AllocMatrixCell{Pooled: pooled, Workers: w, Digest: d})
		}
	}
	return res, nil
}

// ExpAlloc is the cmd/vbench experiment wrapper.
func ExpAlloc(ExpConfig) (Report, error) {
	res, err := RunAllocBench(DefaultAllocBench())
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "warm hot path, marginal over %d extra rows, %d runs per sample\n",
		res.LongFrames-res.ShortFrames, res.WarmRuns)
	fmt.Fprintf(&sb, "%-18s | %12s | %12s | %8s | %8s | %8s\n",
		"Mode", "allocs/row", "bytes/row", "hits", "misses", "puts")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, c := range res.Cells {
		fmt.Fprintf(&sb, "%-18s | %12.4f | %12.1f | %8d | %8d | %8d\n",
			c.Mode, c.AllocsPerRow, c.BytesPerRow, c.PoolHits, c.PoolMisses, c.PoolPuts)
	}
	fmt.Fprintf(&sb, "matrix: %d cells, all digests identical\n", len(res.Matrix))
	return Report{Text: sb.String(), Data: res}, nil
}
