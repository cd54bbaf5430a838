// Ablation benchmarks for the design choices DESIGN.md calls out:
// Algorithm 1 predicate reduction on/off, fuzzy bbox reuse on/off, and
// the materialization-aware ranking against the canonical one.
package eva_test

import (
	"testing"

	"eva"
	"eva/internal/vbench"
	"eva/internal/vision"
)

func runHighWorkload(b *testing.B, cfg eva.Config) *vbench.RunMetrics {
	b.Helper()
	wl := vbench.HighWorkload(scaled(vision.MediumUADetrac))
	m, err := vbench.RunWorkload(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationReduction compares optimizer wall time and formula
// sizes with Algorithm 1 enabled vs disabled. Reuse behaviour is
// identical (probing is key-exact); the reduction pays for itself by
// keeping the symbolic state small.
func BenchmarkAblationReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := runHighWorkload(b, eva.Config{})
		off := runHighWorkload(b, eva.Config{DisableReduction: true})
		if i == 0 {
			atoms := func(m *vbench.RunMetrics) float64 {
				total := 0
				for _, q := range m.Queries {
					for _, p := range q.Preds {
						total += p.UnionAtoms
					}
				}
				return float64(total)
			}
			b.ReportMetric(atoms(on), "atoms-reduced")
			b.ReportMetric(atoms(off), "atoms-unreduced")
		}
	}
}

// BenchmarkAblationRanking compares the Eq. 4 materialization-aware
// ranking against the canonical Eq. 2 ranking over the permuted
// workloads (the Fig. 9 aggregate).
func BenchmarkAblationRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		aware := runHighWorkload(b, eva.Config{})
		canon := runHighWorkload(b, eva.Config{CanonicalRanking: true})
		if i == 0 {
			b.ReportMetric(canon.SimTotal.Seconds()/aware.SimTotal.Seconds(), "workload-gain-x")
		}
	}
}

// BenchmarkAblationFuzzyReuse measures the §6 fuzzy bbox extension on
// a cross-detector workload: CarType materialized over FRCNN101 boxes,
// probed with FRCNN50 boxes.
func BenchmarkAblationFuzzyReuse(b *testing.B) {
	ds := scaled(vision.MediumUADetrac)
	warm := `SELECT id FROM video CROSS APPLY FasterRCNNResnet101(frame)
	         WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`
	probe := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
	          WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`
	run := func(fuzzy bool) float64 {
		sys, err := eva.Open(eva.Config{FuzzyReuse: fuzzy})
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		if err := sys.LoadDataset("video", ds); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Exec(warm); err != nil {
			b.Fatal(err)
		}
		res, err := sys.Exec(probe)
		if err != nil {
			b.Fatal(err)
		}
		return res.SimTime.Seconds()
	}
	for i := 0; i < b.N; i++ {
		exact := run(false)
		fuzzy := run(true)
		if i == 0 {
			b.ReportMetric(exact/fuzzy, "fuzzy-gain-x")
		}
	}
}
