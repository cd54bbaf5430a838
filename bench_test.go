// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs its experiment end-to-end —
// workload generation, optimization, execution, metric collection — at
// a reduced dataset scale so the full suite finishes in minutes, and
// reports the headline simulated metrics via b.ReportMetric. Full
// paper-scale runs are produced by `go run ./cmd/vbench`.
//
// Set EVA_BENCH_SCALE (0 < s ≤ 1, default 0.05) to change the scale.
package eva_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"eva"
	"eva/internal/symbolic"
	"eva/internal/vbench"
	"eva/internal/vision"
)

func benchScale() float64 {
	if v := os.Getenv("EVA_BENCH_SCALE"); v != "" {
		if s, err := strconv.ParseFloat(v, 64); err == nil && s > 0 && s <= 1 {
			return s
		}
	}
	return 0.05
}

func benchCfg() vbench.ExpConfig { return vbench.ExpConfig{Scale: benchScale()} }

func scaled(ds vision.Dataset) vision.Dataset {
	s := benchScale()
	ds.Frames = int(float64(ds.Frames) * s)
	if ds.Frames < 100 {
		ds.Frames = 100
	}
	return ds
}

// runExperiment executes a registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := vbench.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables ---

func BenchmarkTable2HitPercentage(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	for i := 0; i < b.N; i++ {
		var hits []float64
		for _, wl := range []vbench.Workload{vbench.LowWorkload(ds), vbench.HighWorkload(ds)} {
			for _, mode := range []eva.SystemMode{eva.ModeHashStash, eva.ModeFunCache, eva.ModeEVA} {
				m, err := vbench.RunWorkload(eva.Config{Mode: mode}, wl)
				if err != nil {
					b.Fatal(err)
				}
				hits = append(hits, m.HitPct)
			}
		}
		if i == 0 {
			b.ReportMetric(hits[2], "low-eva-hit-%")
			b.ReportMetric(hits[5], "high-eva-hit-%")
		}
	}
}

func BenchmarkTable3UDFStatistics(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	for i := 0; i < b.N; i++ {
		m, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, vbench.HighWorkload(ds))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			det := m.UDFStats["fasterrcnnresnet50"]
			b.ReportMetric(float64(det.Total)/float64(det.Distinct), "detector-TI/DI")
			b.ReportMetric(vbench.SpeedupBound(m.UDFStats, profileCost), "eq7-bound-x")
		}
	}
}

func profileCost(name string) time.Duration {
	p, err := vision.ProfileFor(name)
	if err != nil {
		return time.Millisecond
	}
	return p.Cost
}

func BenchmarkTable4QueryBreakdown(b *testing.B) { runExperiment(b, "table4") }

func BenchmarkTable5ModelStats(b *testing.B) { runExperiment(b, "table5") }

// --- Figures ---

func BenchmarkFig5WorkloadSpeedup(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	wl := vbench.HighWorkload(ds)
	for i := 0; i < b.N; i++ {
		nr, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, wl)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ev.Speedup(nr), "eva-speedup-x")
		}
	}
}

func BenchmarkFig6TimeBreakdown(b *testing.B) { runExperiment(b, "fig6") }

func BenchmarkFig7SymbolicReduction(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	wl := vbench.HighWorkload(ds)
	for i := 0; i < b.N; i++ {
		points, err := vbench.Fig7Points(wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxEVA, maxSim := 0, 0
			for _, p := range points {
				if p.EVAAtoms > maxEVA {
					maxEVA = p.EVAAtoms
				}
				if p.SimplifyAtoms > maxSim {
					maxSim = p.SimplifyAtoms
				}
			}
			b.ReportMetric(float64(maxEVA), "eva-max-atoms")
			b.ReportMetric(float64(maxSim), "simplify-max-atoms")
		}
	}
}

func BenchmarkFig8OrderOfQueries(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig9PredicateReordering(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := vbench.Fig9Rows(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best := 0.0
			for _, r := range rows {
				if r.Speedup > best {
					best = r.Speedup
				}
			}
			b.ReportMetric(best, "best-reorder-speedup-x")
		}
	}
}

func BenchmarkFig10LogicalUDFReuse(b *testing.B) { runExperiment(b, "fig10") }

func BenchmarkFig11VideoContent(b *testing.B) {
	ds := scaled(vision.Jackson)
	wl := vbench.HighWorkload(ds)
	for i := 0; i < b.N; i++ {
		nr, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, wl)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ev.Speedup(nr), "jackson-eva-speedup-x")
		}
	}
}

func BenchmarkFig12VideoLength(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkFilterComplement(b *testing.B) { runExperiment(b, "filters") }

func BenchmarkStorageFootprint(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	wl := vbench.HighWorkload(ds)
	for i := 0; i < b.N; i++ {
		m, err := vbench.RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*float64(m.ViewBytes)/float64(m.VideoVirtualBytes), "overhead-%")
		}
	}
}

// --- Micro-benchmarks of the core machinery ---

func BenchmarkSymbolicInterDiffUnion(b *testing.B) {
	sys, err := eva.Open(eva.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	_ = sys
	p1 := rangePred(b, 0, 10000)
	p2 := rangePred(b, 7500, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbolic.Inter(p1, p2)
		symbolic.Diff(p1, p2)
		symbolic.Union(p1, p2)
	}
}

func rangePred(b *testing.B, lo, hi float64) symbolic.DNF {
	b.Helper()
	d := symbolic.FromConjuncts(
		symbolic.NewConjunct().
			WithConstraint("id", symbolic.NumConstraint(symbolic.NewIntervalSet(
				symbolic.Interval{Lo: lo, Hi: hi, HiOpen: true}))).
			WithConstraint("label", symbolic.CatConstraint(symbolic.NewCatSet("car"))),
	)
	return d
}

// BenchmarkParallelScanUDF measures the parallel pipelined executor
// on a latency-bound scan+UDF workload (a blocking scalar UDF models
// NN-inference RPCs) at several worker counts. Wall-clock ns/op should
// drop near-linearly with workers while the simulated time — asserted
// inside RunParallelBench — stays byte-identical. The committed
// baseline lives in BENCH_parallel.json (refresh with
// `go run ./cmd/vbench -exp parallel -json BENCH_parallel.json`).
func BenchmarkParallelScanUDF(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := vbench.ParallelBenchConfig{
				Frames:  100,
				Sleep:   2 * time.Millisecond,
				Iters:   1,
				Workers: []int{workers},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := vbench.RunParallelBench(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Cells[0].NsPerOp), "wall-ns/udf-op")
				}
			}
		})
	}
}

func BenchmarkSingleQueryColdVsWarm(b *testing.B) {
	sys, err := eva.Open(eva.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", scaled(vision.MediumUADetrac)); err != nil {
		b.Fatal(err)
	}
	q := `SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame)
	      WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`
	if _, err := sys.Exec(q); err != nil {
		b.Fatal(err) // cold run materializes
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}
