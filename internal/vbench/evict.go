package vbench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eva"
	"eva/internal/vision"
)

// The evict benchmark measures disk-pressure survival (DESIGN.md §16)
// end to end: the exploratory workload runs under progressively
// tighter storage budgets, the engine reclaims along the degrade
// ladder (compact, then evict cold views), and every query must still
// return baseline-identical rows — eviction trades recompute time for
// disk, never answers. Reported per budget level: denials, bytes
// reclaimed per ladder tier, queries survived, and the warm re-run's
// simulated time (the evict-then-recompute penalty). Everything runs
// on the virtual clock, so the committed baseline (BENCH_evict.json)
// is deterministic across machines.

// evictWorkload builds several detector views of comparable size, so
// the largest single view is well below the total footprint and the
// budget levels between "admits everything" and "admits one view"
// actually differ. Every model is pinned (no unconstrained logical
// UDFs): an accuracy-unconstrained query may legitimately be served by
// whichever detector's view survives, which would break the
// byte-identity contract this benchmark verifies.
var evictWorkload = []string{
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 160 AND label = 'car'`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 150`,
	`SELECT id FROM video CROSS APPLY YoloTiny(frame) WHERE id < 170`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet101(frame) WHERE id < 140`,
	`SELECT id FROM video CROSS APPLY YoloTiny(frame) WHERE id >= 40 AND id < 200`,
}

// EvictCell is one budget level's measurement.
type EvictCell struct {
	// Level names the budget sizing: "full", "threequarter", "half", or
	// "tight" (the floor that still admits the largest single view). A
	// level whose budget clamps to the previous level's is not emitted.
	Level string `json:"level"`
	// BudgetBytes is the configured limit.
	BudgetBytes int64 `json:"budget_bytes"`
	// UsedBytes is the charged footprint when the workload finished.
	UsedBytes int64 `json:"used_bytes"`
	// Denials counts budget admissions that had to wait for reclaim.
	Denials int64 `json:"denials"`
	// Evictions counts whole views evicted.
	Evictions int64 `json:"evictions"`
	// CompactReclaimedBytes / EvictReclaimedBytes split the reclaimed
	// bytes by ladder tier.
	CompactReclaimedBytes int64 `json:"compact_reclaimed_bytes"`
	EvictReclaimedBytes   int64 `json:"evict_reclaimed_bytes"`
	// QueriesSurvived counts statements that returned rows (all of them
	// must — RunEvictBench fails otherwise).
	QueriesSurvived int `json:"queries_survived"`
	// WarmNs is the warm re-run's simulated time: on an unconstrained
	// system the views serve everything; under pressure it includes the
	// evict-then-recompute penalty.
	WarmNs int64 `json:"warm_ns"`
	// Converged reports whether cold and warm outputs were
	// byte-identical to the unconstrained baseline.
	Converged bool `json:"converged"`
}

// EvictResult is the JSON-serialized baseline (BENCH_evict.json).
type EvictResult struct {
	Benchmark string `json:"benchmark"`
	Dataset   string `json:"dataset"`
	Queries   int    `json:"queries"`
	// BaselineBytes is the unconstrained charged footprint the budget
	// levels are sized from; BaselineWarmNs the unconstrained warm
	// re-run time.
	BaselineBytes  int64       `json:"baseline_bytes"`
	BaselineWarmNs int64       `json:"baseline_warm_ns"`
	Cells          []EvictCell `json:"cells"`
	// WarmNsP50/P99 are percentiles over the cells' warm re-run times.
	WarmNsP50 int64 `json:"warm_ns_p50"`
	WarmNsP99 int64 `json:"warm_ns_p99"`
}

// chargedFootprint sums the budget-charged view logs under dir and
// returns the largest single one.
func chargedFootprint(dir string) (total, largest int64, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
		largest = max(largest, fi.Size())
	}
	if total == 0 || largest == 0 {
		return 0, 0, fmt.Errorf("vbench: workload left no durable views under %s", dir)
	}
	return total, largest, nil
}

// RunEvictBench measures one cell per budget level and verifies every
// cell converges to the unconstrained baseline.
func RunEvictBench() (*EvictResult, error) {
	res := &EvictResult{
		Benchmark: "evict-survival",
		Dataset:   vision.Jackson.Name,
		Queries:   len(evictWorkload),
	}

	// Unconstrained baseline: output digests, warm-run time, and the
	// charged footprint the budget levels are sized from.
	baseDir, err := os.MkdirTemp("", "vbench-evict-base")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(baseDir)
	baseSys, err := eva.Open(eva.Config{Dir: baseDir, Workers: 8})
	if err != nil {
		return nil, err
	}
	if err := baseSys.LoadVideo("video", "jackson"); err != nil {
		baseSys.Close()
		return nil, err
	}
	// The digests are the answers alone, not view row counts: eviction
	// legitimately empties cold caches without changing any answer.
	baseCold, _ := runQueries(baseSys, evictWorkload)
	warmStart := baseSys.SimulatedTime()
	baseWarm, _ := runQueries(baseSys, evictWorkload)
	res.BaselineWarmNs = int64(baseSys.SimulatedTime() - warmStart)
	if err := baseSys.Close(); err != nil {
		return nil, err
	}
	total, largest, err := chargedFootprint(baseDir)
	if err != nil {
		return nil, err
	}
	res.BaselineBytes = total

	// The floor always admits the largest single view plus append
	// slack — below it ErrDiskBudget would be legitimate.
	floor := largest + largest/2 + 512
	clamp := func(b int64) int64 {
		if b < floor {
			return floor
		}
		return b
	}
	levels := []struct {
		name  string
		bytes int64
	}{
		{"full", total + 512},
		{"threequarter", clamp(total * 3 / 4)},
		{"half", clamp(total / 2)},
		{"tight", floor},
	}

	var warmTimes []int64
	var evictions int64
	for i, level := range levels {
		if i > 0 && level.bytes == levels[i-1].bytes {
			// Clamped to the same budget as the level before it (a
			// footprint dominated by one view): the cell would repeat
			// that one byte for byte and measure nothing.
			continue
		}
		cell, err := runEvictCell(level.name, level.bytes, baseCold, baseWarm)
		if err != nil {
			return nil, fmt.Errorf("vbench: evict cell %s: %w", level.name, err)
		}
		if !cell.Converged {
			return nil, fmt.Errorf("vbench: evict cell %s diverged from the unconstrained baseline", level.name)
		}
		if cell.QueriesSurvived != 2*len(evictWorkload) {
			return nil, fmt.Errorf("vbench: evict cell %s: %d/%d queries survived",
				level.name, cell.QueriesSurvived, 2*len(evictWorkload))
		}
		evictions += cell.Evictions
		warmTimes = append(warmTimes, cell.WarmNs)
		res.Cells = append(res.Cells, *cell)
	}
	if evictions == 0 {
		return nil, fmt.Errorf("vbench: no budget level forced an eviction — the ladder went unexercised")
	}

	res.WarmNsP50 = percentile(warmTimes, 50)
	res.WarmNsP99 = percentile(warmTimes, 99)
	return res, nil
}

// runEvictCell runs the workload cold + warm under one budget level.
func runEvictCell(name string, budget int64, baseCold, baseWarm string) (*EvictCell, error) {
	dir, err := os.MkdirTemp("", "vbench-evict")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sys, err := eva.Open(eva.Config{Dir: dir, Workers: 8, DiskBudgetBytes: budget})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		return nil, err
	}
	cold, coldOK := runQueries(sys, evictWorkload)
	warmStart := sys.SimulatedTime()
	warm, warmOK := runQueries(sys, evictWorkload)
	cell := &EvictCell{
		Level:           name,
		BudgetBytes:     budget,
		QueriesSurvived: coldOK + warmOK,
		WarmNs:          int64(sys.SimulatedTime() - warmStart),
		Converged:       cold == baseCold && warm == baseWarm,
	}
	st := sys.StorageStats().Disk
	cell.UsedBytes = st.UsedBytes
	cell.Denials = st.Denials
	cell.Evictions = st.Evictions
	cell.CompactReclaimedBytes = st.CompactReclaimedBytes
	cell.EvictReclaimedBytes = st.EvictReclaimedBytes
	return cell, nil
}

// ExpEvict is the cmd/vbench experiment wrapper.
func ExpEvict(ExpConfig) (Report, error) {
	res, err := RunEvictBench()
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d queries × %d budget levels — every cell answered baseline-identical rows\n",
		res.Queries, len(res.Cells))
	fmt.Fprintf(&sb, "baseline footprint %d bytes, warm re-run %s\n",
		res.BaselineBytes, time.Duration(res.BaselineWarmNs).Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-13s | %8s | %8s | %7s | %6s | %9s | %9s | %12s\n",
		"Level", "budget", "used", "denials", "evict", "cmp bytes", "evt bytes", "warm simt")
	sb.WriteString(strings.Repeat("-", 92) + "\n")
	for _, c := range res.Cells {
		fmt.Fprintf(&sb, "%-13s | %8d | %8d | %7d | %6d | %9d | %9d | %12s\n",
			c.Level, c.BudgetBytes, c.UsedBytes, c.Denials, c.Evictions,
			c.CompactReclaimedBytes, c.EvictReclaimedBytes,
			time.Duration(c.WarmNs).Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "warm simtime p50 %s, p99 %s\n",
		time.Duration(res.WarmNsP50).Round(time.Millisecond),
		time.Duration(res.WarmNsP99).Round(time.Millisecond))
	return Report{Text: sb.String(), Data: res}, nil
}
