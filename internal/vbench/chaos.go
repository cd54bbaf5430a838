package vbench

import (
	"fmt"
	"strings"
	"time"

	"eva"
	"eva/internal/faults"
	"eva/internal/vision"
)

// The chaos differential benchmark: an exploratory workload replayed
// under seeded fault schedules spanning four regimes (transient,
// permanent, crash, deadline), once serial and once at Workers=8. The
// determinism contract under faults — decisions keyed by call identity
// rather than draw order — requires every observable (per-query rows
// or error text, view state, UDF counters, the injected-fault event
// log, virtual-clock totals) to be byte-identical at both worker
// counts. The committed baseline is BENCH_chaos.json.

// chaosWorkload mirrors the fault-sweep query mix: a degradable
// logical-UDF query, overlapping physical-model queries exercising
// reuse, a predicate UDF and a partially covered range.
var chaosWorkload = []string{
	`SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 120 AND label = 'car'`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200`,
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 260 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`,
	`SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id >= 60 AND id < 180`,
}

// ChaosCell is one (regime, seed) measurement across worker counts.
type ChaosCell struct {
	Regime string `json:"regime"`
	Seed   uint64 `json:"seed"`
	// Injected is the number of faults fired in the serial run (the
	// parallel run must fire the identical schedule).
	Injected int `json:"injected"`
	// FailedQueries counts workload queries that surfaced an error.
	FailedQueries int `json:"failed_queries"`
	// SimNs is the cumulative simulated time of the serial run.
	SimNs int64 `json:"sim_ns"`
	// Identical reports whether the Workers=8 digest was byte-equal to
	// the serial one. RunChaosBench fails if any cell is false, so a
	// committed baseline always shows all-true.
	Identical bool `json:"identical"`
}

// ChaosResult is the JSON-serialized baseline (BENCH_chaos.json).
type ChaosResult struct {
	Benchmark string      `json:"benchmark"`
	Dataset   string      `json:"dataset"`
	Queries   int         `json:"queries"`
	Workers   []int       `json:"workers"`
	Cells     []ChaosCell `json:"cells"`
}

// ChaosBenchConfig parameterizes RunChaosBench.
type ChaosBenchConfig struct {
	SeedsPerRegime int
	Workers        []int // first entry is the serial baseline
}

// DefaultChaosBench is the committed-baseline configuration.
func DefaultChaosBench() ChaosBenchConfig {
	return ChaosBenchConfig{SeedsPerRegime: 3, Workers: []int{1, 8}}
}

// chaosDigest runs the workload under one fault schedule and returns
// (digest, injected count, failed queries, total simulated ns).
func chaosDigest(workers int, regime string, seed uint64) (string, int, int, int64, error) {
	sys, err := eva.Open(eva.Config{Workers: workers})
	if err != nil {
		return "", 0, 0, 0, err
	}
	defer sys.Close()
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		return "", 0, 0, 0, err
	}
	inj := faults.NewRegime(regime, seed)
	sys.InjectFaults(inj)

	rows, answered := runQueries(sys, chaosWorkload)
	var out strings.Builder
	out.WriteString(rows)
	out.WriteString(sortedLines("view", sys.ViewRows()))
	out.WriteString(sortedLines("udf", sys.UDFCounters()))
	fmt.Fprintf(&out, "hit%%: %.6f\nsimtime: %d\n", sys.HitPercentage(), sys.SimulatedTime())
	for _, ev := range inj.EventsSorted() {
		fmt.Fprintf(&out, "fault %+v\n", ev)
	}
	return out.String(), inj.Injected(), len(chaosWorkload) - answered, int64(sys.SimulatedTime()), nil
}

// RunChaosBench replays the workload under every (regime, seed) cell
// at each worker count and verifies the digests are byte-identical. A
// divergence is an error — the benchmark is the determinism contract's
// executable form, not a best-effort measurement.
func RunChaosBench(cfg ChaosBenchConfig) (*ChaosResult, error) {
	res := &ChaosResult{
		Benchmark: "chaos-differential",
		Dataset:   vision.Jackson.Name,
		Queries:   len(chaosWorkload),
		Workers:   cfg.Workers,
	}
	for _, regime := range faults.Regimes {
		for s := 0; s < cfg.SeedsPerRegime; s++ {
			// Seeds follow the fault sweep's regime mapping
			// (regime = seed mod 4: transient 0, permanent 1,
			// crash 2, deadline 3).
			seed := uint64(s)*4 + map[string]uint64{
				"transient": 4, "permanent": 1, "crash": 2, "deadline": 3,
			}[regime]
			base, injected, failed, simNs, err := chaosDigest(cfg.Workers[0], regime, seed)
			if err != nil {
				return nil, fmt.Errorf("vbench: chaos %s seed %d serial: %w", regime, seed, err)
			}
			cell := ChaosCell{
				Regime: regime, Seed: seed,
				Injected: injected, FailedQueries: failed, SimNs: simNs,
				Identical: true,
			}
			for _, w := range cfg.Workers[1:] {
				got, _, _, _, err := chaosDigest(w, regime, seed)
				if err != nil {
					return nil, fmt.Errorf("vbench: chaos %s seed %d workers %d: %w", regime, seed, w, err)
				}
				if got != base {
					cell.Identical = false
					return nil, fmt.Errorf("vbench: chaos %s seed %d diverged at workers=%d", regime, seed, w)
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// ExpChaos is the cmd/vbench experiment wrapper.
func ExpChaos(ExpConfig) (Report, error) {
	res, err := RunChaosBench(DefaultChaosBench())
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d queries × %d fault cells, workers %v — all digests byte-identical to serial\n",
		res.Queries, len(res.Cells), res.Workers)
	fmt.Fprintf(&sb, "%-10s | %5s | %8s | %7s | %12s\n", "Regime", "seed", "injected", "failed", "sim time")
	sb.WriteString(strings.Repeat("-", 54) + "\n")
	for _, c := range res.Cells {
		fmt.Fprintf(&sb, "%-10s | %5d | %8d | %7d | %12s\n",
			c.Regime, c.Seed, c.Injected, c.FailedQueries,
			time.Duration(c.SimNs).Round(time.Millisecond))
	}
	return Report{Text: sb.String(), Data: res}, nil
}
