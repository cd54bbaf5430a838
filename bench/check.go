package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// metricSpec and benchSpec are the parts of BENCHMARK.json the
// benchmark itself reads.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBounds(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// exact reports whether a metric is a count the program makes, which
// two runs at one seed must reproduce bit for bit: virtual-clock time,
// UDF demand counters, bytes on disk.
func exact(name string) bool {
	switch name {
	case "sim_session_s", "udf.evaluated", "udf.reused", "udf.hit_pct",
		"symbolic.atoms_after_reduce", "storage.view_disk_mb", "storage.view_disk_growth_kb",
		"storage.view_bytes_per_row", "storage.write_amp", "types.datum_size_bytes", "server.shed":
		return true
	}
	return strings.HasPrefix(name, "simclock.")
}

// compare prints one verdict per (metric, workload) for two suite
// passes of the same code and returns how many disagree. An exact
// metric agrees only when identical. A measured end-to-end metric
// agrees when the passes differ by no more than its bound; beyond the
// bound it is unresolved if either pass's own samples spread wider
// than the bound, and a disagreement otherwise; live_heap_mb is a single
// reading with no samples, so it is never unresolved. Measured
// per-layer metrics have no bound and are not compared.
func compare(first, second []*runResult, spec *benchSpec) int {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	disagree := 0
	for i, a := range first {
		b := second[i]
		for _, ma := range a.Metrics {
			mb, ok := b.value(ma.Name)
			if !ok {
				continue
			}
			bound, bounded := bounds[ma.Name]
			if a.Traced {
				bounded = false
			}
			verdict := ""
			diff := 0.0
			if lo := math.Min(math.Abs(ma.Value), math.Abs(mb.Value)); lo > 0 {
				diff = math.Abs(ma.Value-mb.Value) / lo
			}
			switch {
			case exact(ma.Name):
				verdict = "agree"
				if ma.Value != mb.Value {
					verdict = "disagree"
				}
			case !bounded:
				continue
			case diff <= bound:
				verdict = "agree"
			case math.Max(ma.Spread, mb.Spread) > bound:
				verdict = "unresolved"
			default:
				verdict = "disagree"
			}
			if verdict == "disagree" {
				disagree++
			}
			fmt.Printf("check %-12s %-32s %-10s %.6g vs %.6g %s (differ %.2f%%)\n",
				a.Workload, ma.Name, verdict, ma.Value, mb.Value, ma.Unit, 100*diff)
		}
	}
	return disagree
}
