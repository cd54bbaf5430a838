package eva

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"eva/internal/faults"
	"eva/internal/parser"
)

// The committed fault baselines — BENCH_chaos.json, BENCH_evict.json and
// BENCH_scrub.json — are the reports of three matrices on the root
// harness (matrix_test.go), each over a workload in testdata/baselines
// run on the jackson video. They are charged to the virtual clock alone,
// so they are the same bytes on any machine: TestCommittedBaselines
// regenerates each and fails on the first line that differs from the
// committed file. `go test -run TestCommittedBaselines . -update`
// rewrites them.
func TestCommittedBaselines(t *testing.T) {
	for _, b := range []struct {
		name  string
		build func(*testing.T, string) any
	}{
		{"chaos", chaosBaseline},
		{"evict", evictBaseline},
		{"scrub", scrubBaseline},
	} {
		t.Run(b.name, func(t *testing.T) {
			src := loadScripts(t, "baselines/"+b.name+".sql")[0].src
			data, err := json.MarshalIndent(b.build(t, src), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got, path := string(data)+"\n", "BENCH_"+b.name+".json"
			if *updateGolden {
				// A failed cell's figures are not a baseline.
				if t.Failed() {
					return
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			same(t, path+" (want: committed, got: regenerated)", string(want), got)
		})
	}
}

// statementCount is the number of statements in src.
func statementCount(t *testing.T, src string) int {
	t.Helper()
	stmts, err := parser.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return len(stmts)
}

// lowerRank is the p-th percentile (0–100) of vals by the lower-rank
// rule.
func lowerRank(vals []int64, p int) int64 {
	sorted := slices.Sorted(slices.Values(vals))
	return sorted[(len(sorted)-1)*p/100]
}

// viewRowTotal is the rows a System's views hold in all.
func viewRowTotal(sys *System) int {
	total := 0
	for _, n := range sys.ViewRows() {
		total += n
	}
	return total
}

// chaosReport is BENCH_chaos.json: the workload under seeded fault
// schedules of every regime, each cell byte-identical at Workers 1 and 8.
type chaosReport struct {
	Benchmark string      `json:"benchmark"`
	Dataset   string      `json:"dataset"`
	Queries   int         `json:"queries"`
	Workers   []int       `json:"workers"`
	Cells     []chaosCell `json:"cells"`
}

// chaosCell is one schedule's serial run: the faults it injected, the
// statements that failed and its virtual time in all.
type chaosCell struct {
	Regime        string `json:"regime"`
	Seed          uint64 `json:"seed"`
	Injected      int    `json:"injected"`
	FailedQueries int    `json:"failed_queries"`
	SimNs         int64  `json:"sim_ns"`
	Identical     bool   `json:"identical"`
}

// chaosBaseline runs src under seeded(1..12), grouped by regime. The
// video is loaded before the injector is installed, so no fault lands
// on the load.
func chaosBaseline(t *testing.T, src string) any {
	rep := chaosReport{Benchmark: "chaos-differential", Dataset: "jackson",
		Queries: statementCount(t, src), Workers: []int{1, 8}}
	injected := injections{}
	for _, regime := range faults.Regimes {
		for seed := uint64(1); seed <= 12; seed++ {
			sched := seeded(seed)
			if sched.regime != regime {
				continue
			}
			c := chaosCell{Regime: regime, Seed: seed}
			run := func(t *testing.T, cfg Config) string {
				sys := openLoaded(t, cfg)
				inj := sched.injector()
				sys.InjectFaults(inj)
				out, failed := runStatements(t, sys, src, everything)
				if cfg.Workers == 1 {
					c.Injected, c.FailedQueries, c.SimNs = inj.Injected(), failed, int64(sys.SimulatedTime())
				}
				return out + stateDigest(sys) + faultsDigest(inj)
			}
			c.Identical = t.Run(sched.name(), func(t *testing.T) {
				matrix(t, run, Config{Workers: 1}, atWorkers(Config{}, "", 8))
			})
			injected[regime] += c.Injected
			rep.Cells = append(rep.Cells, c)
		}
	}
	injected.requireEach(t)
	return rep
}

// evictReport is BENCH_evict.json: the workload cold then warm under
// budgets sized from its unconstrained footprint.
type evictReport struct {
	Benchmark      string      `json:"benchmark"`
	Dataset        string      `json:"dataset"`
	Queries        int         `json:"queries"`
	BaselineBytes  int64       `json:"baseline_bytes"`
	BaselineWarmNs int64       `json:"baseline_warm_ns"`
	Cells          []evictCell `json:"cells"`
	WarmNsP50      int64       `json:"warm_ns_p50"`
	WarmNsP99      int64       `json:"warm_ns_p99"`
}

// evictCell is one budget level: the disk budget's accounting after the
// two runs, how many statements answered, and the warm run's virtual
// time, which under pressure includes recomputing what was evicted.
type evictCell struct {
	Level                 string `json:"level"`
	BudgetBytes           int64  `json:"budget_bytes"`
	UsedBytes             int64  `json:"used_bytes"`
	Denials               int64  `json:"denials"`
	Evictions             int64  `json:"evictions"`
	CompactReclaimedBytes int64  `json:"compact_reclaimed_bytes"`
	EvictReclaimedBytes   int64  `json:"evict_reclaimed_bytes"`
	QueriesSurvived       int    `json:"queries_survived"`
	WarmNs                int64  `json:"warm_ns"`
	Converged             bool   `json:"converged"`
}

// evictRun runs src cold then warm on a System opened with cfg and
// closes it. The digests are the answers alone: eviction empties cold
// views without changing any answer.
func evictRun(t *testing.T, cfg Config, src string) (cold, warm string, c evictCell) {
	t.Helper()
	sys := openLoaded(t, cfg)
	cold, coldFailed := runStatements(t, sys, src, answers)
	start := sys.SimulatedTime()
	warm, warmFailed := runStatements(t, sys, src, answers)
	d := sys.StorageStats().Disk
	c = evictCell{
		BudgetBytes: cfg.DiskBudgetBytes, UsedBytes: d.UsedBytes,
		Denials: d.Denials, Evictions: d.Evictions,
		CompactReclaimedBytes: d.CompactReclaimedBytes, EvictReclaimedBytes: d.EvictReclaimedBytes,
		QueriesSurvived: 2*statementCount(t, src) - coldFailed - warmFailed,
		WarmNs:          int64(sys.SimulatedTime() - start),
	}
	closeOK(t, sys)
	return cold, warm, c
}

// evictBaseline runs src unconstrained and then under four budget
// levels: "full" holds the whole footprint, "threequarter" and "half"
// hold that share of it, and "tight" is the floor that still admits the
// largest view plus an append's slack, below which ErrDiskBudget would
// be legitimate. A level clamped to the one before it would repeat that
// cell byte for byte, so it is left out.
func evictBaseline(t *testing.T, src string) any {
	n := statementCount(t, src)
	rep := evictReport{Benchmark: "evict-survival", Dataset: "jackson", Queries: n}
	dir := t.TempDir()
	baseCold, baseWarm, base := evictRun(t, Config{Dir: dir, Workers: 8}, src)
	total, largest := viewLogBytes(t, dir)
	rep.BaselineBytes, rep.BaselineWarmNs = total, base.WarmNs

	floor := largest + largest/2 + 512
	levels := []struct {
		name  string
		bytes int64
	}{
		{"full", total + 512},
		{"threequarter", max(total*3/4, floor)},
		{"half", max(total/2, floor)},
		{"tight", floor},
	}
	var warmNs []int64
	var evictions int64
	for i, level := range levels {
		if i > 0 && level.bytes == levels[i-1].bytes {
			continue
		}
		var c evictCell
		t.Run(level.name, func(t *testing.T) {
			var cold, warm string
			cold, warm, c = evictRun(t, Config{Workers: 8, DiskBudgetBytes: level.bytes}, src)
			same(t, "cold answers", baseCold, cold)
			same(t, "warm answers", baseWarm, warm)
			c.Converged = cold == baseCold && warm == baseWarm
			if c.QueriesSurvived != 2*n {
				t.Errorf("%d of %d statements answered", c.QueriesSurvived, 2*n)
			}
		})
		c.Level = level.name
		evictions += c.Evictions
		warmNs = append(warmNs, c.WarmNs)
		rep.Cells = append(rep.Cells, c)
	}
	if evictions == 0 {
		t.Error("no budget level evicted a view — the ladder went unexercised")
	}
	rep.WarmNsP50, rep.WarmNsP99 = lowerRank(warmNs, 50), lowerRank(warmNs, 99)
	return rep
}

// scrubReport is BENCH_scrub.json: the workload's views corrupted at
// each site, scrubbed, repaired and run again.
type scrubReport struct {
	Benchmark   string      `json:"benchmark"`
	Dataset     string      `json:"dataset"`
	Queries     int         `json:"queries"`
	Cells       []scrubCell `json:"cells"`
	RepairNsP50 int64       `json:"repair_ns_p50"`
	RepairNsP99 int64       `json:"repair_ns_p99"`
	// CompactionAmplification is the bytes the repairs' compactions
	// wrote per byte of log they rewrote, over every cell.
	CompactionAmplification float64 `json:"compaction_amplification"`
}

// scrubCell is one site: the view rows before the flips, after the scrub
// pass (salvaged) and added by repair and the run after it
// (recomputed); the views the scrub found corrupt; the repair's virtual
// time; and the log bytes around its compactions.
type scrubCell struct {
	Site               string `json:"site"`
	RowsBefore         int    `json:"rows_before"`
	RowsSalvaged       int    `json:"rows_salvaged"`
	RowsRecomputed     int    `json:"rows_recomputed"`
	QuarantinedViews   int    `json:"quarantined_views"`
	RepairNs           int64  `json:"repair_ns"`
	CompactBytesBefore int64  `json:"compact_bytes_before"`
	CompactBytesAfter  int64  `json:"compact_bytes_after"`
	Converged          bool   `json:"converged"`
}

// scrubFlips are the corruption sites: one byte flipped in every view
// log, at the header magic, at three depths inside the records, or in
// the final record's checksum.
var scrubFlips = []struct {
	site string
	at   func(size int64) int64
}{
	{"header", func(int64) int64 { return 1 }},
	{"mid@0.3", func(size int64) int64 { return int64(float64(size) * 0.3) }},
	{"mid@0.5", func(size int64) int64 { return int64(float64(size) * 0.5) }},
	{"mid@0.7", func(size int64) int64 { return int64(float64(size) * 0.7) }},
	{"tail", func(size int64) int64 { return size - 5 }},
}

// scrubBaseline runs each corrupt → scrub → repair → re-run cycle and
// requires the healed answers and view content to be the pristine
// warm run's.
func scrubBaseline(t *testing.T, src string) any {
	rep := scrubReport{Benchmark: "scrub-repair", Dataset: "jackson", Queries: statementCount(t, src)}
	pristine := openLoaded(t, Config{Workers: 8})
	answersOf(t, pristine, src)
	want := answersOf(t, pristine, src) + viewContentDigest(pristine)
	closeOK(t, pristine)

	var repairNs []int64
	var before, after int64
	for _, f := range scrubFlips {
		c := scrubCell{Site: f.site}
		t.Run(f.site, func(t *testing.T) {
			dir := t.TempDir()
			sys := openLoaded(t, Config{Dir: dir, Workers: 8})
			answersOf(t, sys, src)
			c.RowsBefore = viewRowTotal(sys)
			for _, p := range viewLogs(t, dir) {
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				flipByte(t, p, f.at(fi.Size()))
			}
			for _, fd := range scrub(t, sys).Findings {
				if fd.Err != "" {
					t.Errorf("scrub finding %s: %s", fd.Name, fd.Err)
				}
				if !fd.Clean {
					c.QuarantinedViews++
				}
			}
			c.RowsSalvaged = viewRowTotal(sys)
			start := sys.SimulatedTime()
			for _, r := range repair(t, sys).Records {
				if r.Err != "" {
					t.Errorf("repair %s: %s", r.View, r.Err)
				}
				c.CompactBytesBefore += r.CompactBytesBefore
				c.CompactBytesAfter += r.CompactBytesAfter
			}
			c.RepairNs = int64(sys.SimulatedTime() - start)
			// The run after the repair closes what its range queries
			// could not bound.
			healed := answersOf(t, sys, src) + viewContentDigest(sys)
			c.RowsRecomputed = viewRowTotal(sys) - c.RowsSalvaged
			c.Converged = healed == want
			same(t, fmt.Sprintf("healed after a %s flip", f.site), want, healed)
		})
		repairNs = append(repairNs, c.RepairNs)
		before += c.CompactBytesBefore
		after += c.CompactBytesAfter
		rep.Cells = append(rep.Cells, c)
	}
	rep.RepairNsP50, rep.RepairNsP99 = lowerRank(repairNs, 50), lowerRank(repairNs, 99)
	if before > 0 {
		rep.CompactionAmplification = float64(after) / float64(before)
	}
	return rep
}
