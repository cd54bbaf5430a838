package vbench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"eva"
	"eva/internal/simclock"
	"eva/internal/vision"
)

// ExpConfig parameterizes an experiment run.
type ExpConfig struct {
	// Scale shrinks every dataset's frame count by this factor
	// (1.0 = the paper's full size). Benchmarks use small scales for
	// quick runs; cmd/vbench defaults to 1.0.
	Scale float64
}

func (c ExpConfig) scale(ds vision.Dataset) vision.Dataset {
	s := c.Scale
	if s <= 0 || s > 1 {
		return ds
	}
	ds.Frames = int(float64(ds.Frames) * s)
	if ds.Frames < 100 {
		ds.Frames = 100
	}
	if s < 1 {
		ds.Name = fmt.Sprintf("%s-x%.2f", ds.Name, s)
	}
	return ds
}

// Report is what every experiment returns: the table cmd/vbench prints
// and, for the experiments that have a committed JSON baseline, the
// value that baseline is the indented encoding of.
type Report struct {
	Text string
	Data any // nil for the text-only paper tables and figures
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Paper string // the paper's headline result, for EXPERIMENTS.md
	// Baseline names the committed file Report.Data regenerates
	// (`vbench -exp ID -json Baseline`); empty when Data is nil.
	Baseline string
	Run      func(cfg ExpConfig) (Report, error)
}

// Experiments lists every reproduced table and figure, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table 2 — Hit Percentage", Paper: "LOW: HashStash 2.02 / FunCache 24.68 / EVA 24.68; HIGH: 5.62 / 66.01 / 66.01", Run: ExpTable2},
		{ID: "table3", Title: "Table 3 — UDF Statistics", Paper: "FRCNN50 99ms 13,820/72,457; CarType 6ms 114,431/414,119; ColorDet 5ms 111,631/219,264", Run: ExpTable3},
		{ID: "table4", Title: "Table 4 — Q8 Time Breakdown", Paper: "No-Reuse: UDF 997s, ReadVideo 22s; EVA: UDF 5s, ReadVideo 19s, ReadView 10s, Mat 2s, Other 5s", Run: ExpTable4},
		{ID: "table5", Title: "Table 5 — Physical Detector Statistics", Paper: "YoloTiny 9ms/17.6; FRCNN50 99ms/37.9; FRCNN101 120ms/42.0", Run: ExpTable5},
		{ID: "fig5", Title: "Fig. 5 — Workload Speedup (MEDIUM-UA-DETRAC)", Paper: "HIGH: EVA ≈4×, HashStash ≈2×, FunCache between; LOW: EVA ≈1.3×, FunCache 0.95×", Run: ExpFig5},
		{ID: "fig6", Title: "Fig. 6 — Per-Query Breakdown and Overhead Sources", Paper: "first 3 queries pay full UDF cost; later queries fast; reuse overheads ≪ UDF cost", Run: ExpFig6},
		{ID: "fig7", Title: "Fig. 7 — Symbolic Predicate Reduction vs simplify", Paper: "EVA keeps atoms small; QM-style simplify grows, esp. for polyadic CarType/ColorDet predicates", Run: ExpFig7},
		{ID: "fig8", Title: "Fig. 8 — Impact of Query Order", Paper: "EVA ≥1.8× under HashStash across 4 permutations; views converge over queries", Run: ExpFig8},
		{ID: "fig9", Title: "Fig. 9 — Materialization-Aware Predicate Reordering", Paper: "3–6× on most multi-UDF queries; some queries unchanged", Run: ExpFig9},
		{ID: "fig10", Title: "Fig. 10 — Logical UDF Reuse", Paper: "EVA ≫ baselines on low-accuracy overlapping queries; 1.2–3.2× on Q6–Q8; Q4 ≈2× slower (chained UDFs)", Run: ExpFig10},
		{ID: "fig11", Title: "Fig. 11 — Impact of Video Content (JACKSON)", Paper: "EVA still best, but smaller gap (fewer vehicles ⇒ fewer classifier invocations)", Run: ExpFig11},
		{ID: "fig12", Title: "Fig. 12 — Impact of Video Length", Paper: "speedup does not drop with length; slight increase on LONG (denser frames)", Run: ExpFig12},
		{ID: "filters", Title: "§5.6 — Complementing Specialized Filters", Paper: "EVA+Filter ≈1.3× over EVA on JACKSON", Run: ExpFilters},
		{ID: "storage", Title: "§5.2 — Storage Footprint", Paper: "≤0.09% extra storage (1.001× total)", Run: ExpStorage},
		{ID: "parallel", Title: "Parallel executor — wall-clock speedup (scan+UDF)", Paper: "engine extension (DESIGN.md §10): wall-clock speedup at identical simulated time", Baseline: "BENCH_parallel.json", Run: ExpParallel},
		{ID: "server", Title: "Serving layer — open-loop multi-session load", Paper: "engine extension (DESIGN.md §11): admitted/shed counts, virtual queue-wait percentiles, throughput", Baseline: "BENCH_server.json", Run: ExpServer},
		{ID: "ingest", Title: "Streaming ingestion — throughput, checkpoint lag, recovery", Paper: "engine extension (DESIGN.md §12): frames/s, checkpoint lag percentiles, reopen time vs log length", Baseline: "BENCH_ingest.json", Run: ExpIngest},
		{ID: "alloc", Title: "Pooled batches — warm hot-path allocations per row", Paper: "engine extension (DESIGN.md §13): marginal allocs/row ~0 on the warm view-served path, pooled/unpooled digests identical", Baseline: "BENCH_alloc.json", Run: ExpAlloc},
	}
}

// ExperimentByID returns the named experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("vbench: unknown experiment %q", id)
}

// --- Table 2 ---

// ExpTable2 reproduces the hit-percentage comparison.
func ExpTable2(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s | %-10s | %-10s | %-10s\n", "Hit %", "HashStash", "FunCache", "EVA")
	sb.WriteString(strings.Repeat("-", 54) + "\n")
	for _, wl := range []Workload{LowWorkload(ds), HighWorkload(ds)} {
		row := []float64{}
		for _, mode := range []eva.SystemMode{eva.ModeHashStash, eva.ModeFunCache, eva.ModeEVA} {
			m, err := RunWorkload(eva.Config{Mode: mode}, wl)
			if err != nil {
				return Report{}, err
			}
			row = append(row, m.HitPct)
		}
		fmt.Fprintf(&sb, "%-14s | %10.2f | %10.2f | %10.2f\n", wl.Name, row[0], row[1], row[2])
	}
	return Report{Text: sb.String()}, nil
}

// --- Table 3 ---

// ExpTable3 reproduces the UDF invocation statistics under No-Reuse.
func ExpTable3(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	m, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, HighWorkload(ds))
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s | %8s | %9s | %9s | %7s\n", "UDF", "C_u (ms)", "#DI", "#TI", "Device")
	sb.WriteString(strings.Repeat("-", 68) + "\n")
	names := make([]string, 0, len(m.UDFStats))
	for n := range m.UDFStats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return profileCost(names[i]) > profileCost(names[j])
	})
	for _, n := range names {
		st := m.UDFStats[n]
		p, err := vision.ProfileFor(n)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "%-22s | %8d | %9d | %9d | %7s\n", p.Name, p.Cost.Milliseconds(), st.Distinct, st.Total, p.Device)
	}
	bound := SpeedupBound(m.UDFStats, profileCost)
	fmt.Fprintf(&sb, "\nEq. 7 workload speedup bound: %.2fx (paper: 4.11x)\n", bound)
	return Report{Text: sb.String()}, nil
}

func profileCost(name string) time.Duration {
	p, err := vision.ProfileFor(name)
	if err != nil {
		return time.Millisecond
	}
	return p.Cost
}

// --- Table 4 ---

// ExpTable4 reproduces the fine-grained time breakdown of Q8 under
// No-Reuse and EVA.
func ExpTable4(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	wl := HighWorkload(ds)
	nr, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, wl)
	if err != nil {
		return Report{}, err
	}
	ev, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
	if err != nil {
		return Report{}, err
	}
	q8 := len(wl.Queries) - 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s | %8s | %10s | %9s | %5s | %6s\n", "Latency(s)", "UDF", "ReadVideo", "ReadView", "Mat", "Other")
	sb.WriteString(strings.Repeat("-", 62) + "\n")
	row := func(name string, b eva.Breakdown) {
		other := b.Get(simclock.CatOptimize) + b.Get(simclock.CatApply) + b.Get(simclock.CatOther) + b.Get(simclock.CatHash)
		fmt.Fprintf(&sb, "%-10s | %8.0f | %10.0f | %9.0f | %5.0f | %6.1f\n",
			name,
			b.Get(simclock.CatUDF).Seconds(),
			b.Get(simclock.CatReadVideo).Seconds(),
			b.Get(simclock.CatReadView).Seconds(),
			b.Get(simclock.CatMaterialize).Seconds(),
			other.Seconds())
	}
	row("No-Reuse", nr.Queries[q8].Breakdown)
	row("EVA", ev.Queries[q8].Breakdown)
	return Report{Text: sb.String()}, nil
}

// --- Table 5 ---

// ExpTable5 reports the physical detector statistics.
func ExpTable5(ExpConfig) (Report, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s | %8s | %8s | %8s\n", "Model", "C_u (ms)", "boxAP", "Accuracy")
	sb.WriteString(strings.Repeat("-", 58) + "\n")
	for _, p := range vision.ProfilesForLogical(vision.LogicalObjectDetector) {
		fmt.Fprintf(&sb, "%-22s | %8d | %8.1f | %8s\n", p.Name, p.Cost.Milliseconds(), p.BoxAP, p.Accuracy)
	}
	return Report{Text: sb.String()}, nil
}

// --- Fig. 5 ---

// ExpFig5 reproduces the workload-speedup comparison.
func ExpFig5(cfg ExpConfig) (Report, error) {
	return speedupFigure(cfg.scale(vision.MediumUADetrac))
}

func speedupFigure(ds vision.Dataset) (Report, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s | %-9s | %-9s | %-9s | %-9s | %s\n", "Speedup", "No-Reuse", "HashStash", "FunCache", "EVA", "No-Reuse time")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, wl := range []Workload{LowWorkload(ds), HighWorkload(ds)} {
		var base *RunMetrics
		row := make([]float64, 0, 4)
		for _, mode := range Systems() {
			m, err := RunWorkload(eva.Config{Mode: mode}, wl)
			if err != nil {
				return Report{}, err
			}
			if mode == eva.ModeNoReuse {
				base = m
			}
			row = append(row, m.Speedup(base))
		}
		fmt.Fprintf(&sb, "%-14s | %9.2f | %9.2f | %9.2f | %9.2f | %.2f h\n",
			wl.Name, row[0], row[1], row[2], row[3], base.SimTotal.Hours())
	}
	return Report{Text: sb.String()}, nil
}

// --- Fig. 6 ---

// ExpFig6 reproduces the per-query time breakdown of VBENCH-HIGH under
// EVA and the overhead-source summary.
func ExpFig6(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	m, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, HighWorkload(ds))
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	sb.WriteString("(a) per-query time (s): UDF vs reuse (read view + mat + apply) vs other\n")
	fmt.Fprintf(&sb, "%-14s | %8s | %8s | %8s | %8s\n", "Query", "Total", "UDF", "Reuse", "Other")
	sb.WriteString(strings.Repeat("-", 58) + "\n")
	for _, q := range m.Queries {
		reuse := q.Breakdown.Get(simclock.CatReadView) + q.Breakdown.Get(simclock.CatMaterialize) + q.Breakdown.Get(simclock.CatApply)
		other := q.Sim - q.Breakdown.Get(simclock.CatUDF) - reuse
		fmt.Fprintf(&sb, "%-14s | %8.1f | %8.1f | %8.1f | %8.1f\n",
			q.Label, q.Sim.Seconds(), q.Breakdown.Get(simclock.CatUDF).Seconds(), reuse.Seconds(), other.Seconds())
	}
	sb.WriteString("\n(b) overhead sources across the workload (s)\n")
	for _, cat := range []simclock.Category{simclock.CatMaterialize, simclock.CatOptimize, simclock.CatApply, simclock.CatReadVideo, simclock.CatReadView} {
		fmt.Fprintf(&sb, "  %-14s %8.2f\n", cat, m.CategoryBreakdown(cat).Seconds())
	}
	return Report{Text: sb.String()}, nil
}

// --- Fig. 11 / Fig. 12 / filters / storage ---

// ExpFig11 reruns the speedup comparison on the JACKSON dataset.
func ExpFig11(cfg ExpConfig) (Report, error) {
	return speedupFigure(cfg.scale(vision.Jackson))
}

// ExpFig12 reproduces the video-length sweep.
func ExpFig12(cfg ExpConfig) (Report, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s | %-12s | %-14s\n", "Dataset", "EVA speedup", "vehicles/frame")
	sb.WriteString(strings.Repeat("-", 50) + "\n")
	for _, base := range []vision.Dataset{vision.ShortUADetrac, vision.MediumUADetrac, vision.LongUADetrac} {
		ds := cfg.scale(base)
		wl := HighWorkload(ds)
		nr, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, wl)
		if err != nil {
			return Report{}, err
		}
		ev, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&sb, "%-18s | %12.2f | %14.2f\n", base.Name, ev.Speedup(nr), ds.AvgObjectsPerFrame(2000))
	}
	return Report{Text: sb.String()}, nil
}

// ExpFilters reproduces the specialized-filter experiment (§5.6).
func ExpFilters(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.Jackson)
	wl := HighWorkload(ds)
	plain, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
	if err != nil {
		return Report{}, err
	}
	filtered, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, WithFilter(wl))
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "EVA:        %8.0f s\n", plain.SimTotal.Seconds())
	fmt.Fprintf(&sb, "EVA+Filter: %8.0f s  (%.2fx)\n", filtered.SimTotal.Seconds(),
		plain.SimTotal.Seconds()/filtered.SimTotal.Seconds())
	return Report{Text: sb.String()}, nil
}

// ExpStorage reproduces the storage-footprint measurement (§5.2).
func ExpStorage(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	var sb strings.Builder
	for _, wl := range []Workload{LowWorkload(ds), HighWorkload(ds)} {
		m, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&sb, "%-14s views %6.1f MiB, dataset %6.1f GiB, overhead %.4f%% (%.5fx total)\n",
			wl.Name,
			float64(m.ViewBytes)/(1<<20),
			float64(m.VideoVirtualBytes)/(1<<30),
			100*float64(m.ViewBytes)/float64(m.VideoVirtualBytes),
			1+float64(m.ViewBytes)/float64(m.VideoVirtualBytes))
	}
	return Report{Text: sb.String()}, nil
}
