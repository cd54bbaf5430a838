package vbench

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"eva"
	"eva/internal/simclock"
	"eva/internal/udf"
)

// QueryMetrics captures one query's execution under a system.
type QueryMetrics struct {
	Label     string
	Rows      int
	Sim       time.Duration
	Wall      time.Duration
	Breakdown eva.Breakdown
	// Order is the scalar-UDF evaluation order the optimizer chose.
	Order []string
	// Preds carries the symbolic analysis (Fig. 7's atom counts).
	Preds map[string]eva.PredInfo
	// ViewRows snapshots per-view materialized rows after the query
	// (Fig. 8(b) convergence).
	ViewRows map[string]int
}

// RunMetrics captures a whole workload run.
type RunMetrics struct {
	Workload  string
	Queries   []QueryMetrics
	SimTotal  time.Duration
	WallTotal time.Duration
	// HitPct is Table 2's hit percentage.
	HitPct float64
	// UDFStats holds per-UDF #DI/#TI/reuse counters (Table 3).
	UDFStats map[string]udf.Stats
	// ViewBytes is the on-disk footprint of materialized views and
	// VideoVirtualBytes the simulated dataset size (§5.2).
	ViewBytes         int64
	VideoVirtualBytes int64
}

// Speedup returns base's simulated time divided by m's — the workload
// speedup metric of Fig. 5.
func (m *RunMetrics) Speedup(base *RunMetrics) float64 {
	if m.SimTotal <= 0 {
		return 0
	}
	return base.SimTotal.Seconds() / m.SimTotal.Seconds()
}

// RunWorkload executes the workload from a clean state on a system
// opened with cfg (cfg.Mode picks the comparison system) and returns its
// metrics.
func RunWorkload(cfg eva.Config, w Workload) (*RunMetrics, error) {
	sys, err := eva.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", w.Dataset); err != nil {
		return nil, err
	}

	out := &RunMetrics{Workload: w.Name}
	for _, q := range w.Queries {
		res, err := sys.Exec(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("vbench: %s %s: %w", w.Name, q.Label, err)
		}
		qm := QueryMetrics{
			Label:     q.Label,
			Rows:      res.Rows.Len(),
			Sim:       res.SimTime,
			Wall:      res.WallTime,
			Breakdown: res.Breakdown,
			Order:     append(res.Report.PreOrder, res.Report.Order...),
			Preds:     res.Report.Preds,
			ViewRows:  sys.ViewRows(),
		}
		out.Queries = append(out.Queries, qm)
		out.SimTotal += res.SimTime
		out.WallTotal += res.WallTime
	}
	out.HitPct = sys.HitPercentage()
	out.UDFStats = sys.UDFCounters()
	out.ViewBytes = sys.ViewFootprint()
	if vb, err := sys.DatasetVirtualBytes("video"); err == nil {
		out.VideoVirtualBytes = vb
	}
	return out, nil
}

// runQueries executes the statements in order and returns what a client
// observes of them — each query's rows, or its error text — as one
// digest, plus how many answered. Each result batch goes back to the
// engine's pool once formatted, as a well-behaved client's would.
func runQueries(sys *eva.System, queries []string) (digest string, answered int) {
	var out strings.Builder
	for i, q := range queries {
		res, err := sys.Exec(q)
		fmt.Fprintf(&out, "== query %d ==\n", i+1)
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			continue
		}
		answered++
		out.WriteString(eva.Format(res.Rows))
		sys.Recycle(res.Rows)
	}
	return out.String(), answered
}

// sortedLines renders one "kind name: value" line per entry of m in
// name order: per-view row counts and per-UDF counters enter a digest
// through here, never in map order.
func sortedLines[V any](kind string, m map[string]V) string {
	var out strings.Builder
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&out, "%s %s: %+v\n", kind, name, m[name])
	}
	return out.String()
}

// percentile reads the p-th percentile (0–100) of vals by the
// lower-rank rule; 0 when there are none.
func percentile(vals []int64, p int) int64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return sorted[(len(sorted)-1)*p/100]
}

// SpeedupBound computes Eq. 7's upper bound on workload speedup from
// no-reuse UDF demand statistics: ΣC_u over all invocations divided by
// ΣC_u over distinct invocations (ignoring the reuse-cost term).
func SpeedupBound(stats map[string]udf.Stats, costOf func(string) time.Duration) float64 {
	var all, distinct float64
	for _, name := range slices.Sorted(maps.Keys(stats)) {
		st := stats[name]
		c := costOf(name).Seconds()
		all += c * float64(st.Total)
		distinct += c * float64(st.Distinct)
	}
	if distinct == 0 {
		return 1
	}
	return all / distinct
}

// Systems lists the comparison systems in the paper's presentation
// order (No-Reuse first).
func Systems() []eva.SystemMode {
	return []eva.SystemMode{eva.ModeNoReuse, eva.ModeHashStash, eva.ModeFunCache, eva.ModeEVA}
}

// CategoryBreakdown aggregates one category across a run's queries.
func (m *RunMetrics) CategoryBreakdown(cat simclock.Category) time.Duration {
	var total time.Duration
	for _, q := range m.Queries {
		total += q.Breakdown.Get(cat)
	}
	return total
}
