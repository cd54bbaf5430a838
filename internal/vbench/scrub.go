package vbench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eva"
	"eva/internal/vision"
)

// The scrub/repair benchmark measures the self-healing view storage
// (DESIGN.md §15) end to end: an exploratory workload materializes
// views, the on-disk logs are corrupted at scripted sites, and the
// scrub → symbolic repair → compaction pipeline heals them. Reported
// per cell: rows salvaged vs recomputed, repair latency (virtual
// time), and compaction byte amplification. Everything runs on the
// virtual clock, so the committed baseline (BENCH_scrub.json) is
// deterministic across machines.

// scrubWorkload builds id-keyed detector views with enough records
// that interior corruption leaves both a salvageable prefix and a
// re-synchronizable suffix.
var scrubWorkload = []string{
	`SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 120 AND label = 'car'`,
	`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200`,
	`SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id >= 60 AND id < 180`,
}

// ScrubCell is one corruption-site measurement.
type ScrubCell struct {
	// Site names the corruption placement: "header", "mid@<frac>", or
	// "tail".
	Site string `json:"site"`
	// RowsBefore is the total materialized rows before corruption.
	RowsBefore int `json:"rows_before"`
	// RowsSalvaged is what the scrub pass kept serving (valid prefix +
	// re-synchronized suffix).
	RowsSalvaged int `json:"rows_salvaged"`
	// RowsRecomputed is what symbolic repair re-evaluated to close the
	// quarantined residual.
	RowsRecomputed int `json:"rows_recomputed"`
	// QuarantinedViews counts views the scrub pass found corrupt.
	QuarantinedViews int `json:"quarantined_views"`
	// RepairNs is the simulated time the repair pass consumed.
	RepairNs int64 `json:"repair_ns"`
	// CompactBytesBefore/After sum the log footprints around the
	// generational rewrite (before includes quarantined dead ranges).
	CompactBytesBefore int64 `json:"compact_bytes_before"`
	CompactBytesAfter  int64 `json:"compact_bytes_after"`
	// Converged reports whether the healed system's workload digest was
	// byte-identical to the never-corrupted baseline. RunScrubBench
	// fails if any cell is false.
	Converged bool `json:"converged"`
}

// ScrubResult is the JSON-serialized baseline (BENCH_scrub.json).
type ScrubResult struct {
	Benchmark string      `json:"benchmark"`
	Dataset   string      `json:"dataset"`
	Queries   int         `json:"queries"`
	Cells     []ScrubCell `json:"cells"`
	// RepairNsP50/P99 are percentiles over the cells' repair times.
	RepairNsP50 int64 `json:"repair_ns_p50"`
	RepairNsP99 int64 `json:"repair_ns_p99"`
	// CompactionAmplification is total new-generation bytes written per
	// byte of pre-compaction log across all cells.
	CompactionAmplification float64 `json:"compaction_amplification"`
}

// scrubSites are the scripted corruption placements: total header
// loss, interior flips at three depths, and a torn tail.
var scrubSites = []struct {
	name string
	frac float64 // flip offset as a fraction of file size; <0 = header, >=1 = tail
}{
	{"header", -1},
	{"mid@0.3", 0.3},
	{"mid@0.5", 0.5},
	{"mid@0.7", 0.7},
	{"tail", 1},
}

// scrubFlip corrupts every view log under dir at the site.
func scrubFlip(dir string, frac float64) error {
	paths, err := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("vbench: no view logs under %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var off int64
		switch {
		case frac < 0:
			off = 1 // header magic
		case frac >= 1:
			off = int64(len(data)) - 5 // final record's checksum
		default:
			off = int64(float64(len(data)) * frac)
		}
		data[off] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// scrubRunWorkload executes the workload and returns its output digest
// (rows or error text per query, plus sorted view row counts).
func scrubRunWorkload(sys *eva.System) string {
	rows, _ := runQueries(sys, scrubWorkload)
	return rows + sortedLines("view", sys.ViewRows())
}

func scrubTotalRows(sys *eva.System) int {
	total := 0
	for _, n := range sys.ViewRows() {
		total += n
	}
	return total
}

// RunScrubBench measures one cell per corruption site and verifies
// convergence to the pristine baseline.
func RunScrubBench() (*ScrubResult, error) {
	res := &ScrubResult{
		Benchmark: "scrub-repair",
		Dataset:   vision.Jackson.Name,
		Queries:   len(scrubWorkload),
	}

	// Pristine baseline: the digest every healed cell must reproduce.
	baseDir, err := os.MkdirTemp("", "vbench-scrub-base")
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
	scrubRunWorkload(baseSys)
	baseline := scrubRunWorkload(baseSys)
	baseSys.Close()

	var repairTimes []int64
	for _, site := range scrubSites {
		dir, err := os.MkdirTemp("", "vbench-scrub")
		if err != nil {
			return nil, err
		}
		cell, err := runScrubCell(dir, site.name, site.frac, baseline)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("vbench: scrub cell %s: %w", site.name, err)
		}
		if !cell.Converged {
			return nil, fmt.Errorf("vbench: scrub cell %s did not converge to the pristine baseline", site.name)
		}
		repairTimes = append(repairTimes, cell.RepairNs)
		res.Cells = append(res.Cells, *cell)
	}

	res.RepairNsP50 = percentile(repairTimes, 50)
	res.RepairNsP99 = percentile(repairTimes, 99)
	var before, after int64
	for _, c := range res.Cells {
		before += c.CompactBytesBefore
		after += c.CompactBytesAfter
	}
	if before > 0 {
		res.CompactionAmplification = float64(after) / float64(before)
	}
	return res, nil
}

// runScrubCell runs one corrupt → scrub → repair → re-run cycle.
func runScrubCell(dir, site string, frac float64, baseline string) (*ScrubCell, error) {
	sys, err := eva.Open(eva.Config{Dir: dir, Workers: 8})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.LoadVideo("video", "jackson"); err != nil {
		return nil, err
	}
	scrubRunWorkload(sys)
	cell := &ScrubCell{Site: site, RowsBefore: scrubTotalRows(sys)}

	if err := scrubFlip(dir, frac); err != nil {
		return nil, err
	}
	rep, err := sys.Scrub()
	if err != nil {
		return nil, err
	}
	for _, f := range rep.Findings {
		if f.Err != "" {
			return nil, fmt.Errorf("scrub finding %s: %s", f.Name, f.Err)
		}
		if !f.Clean {
			cell.QuarantinedViews++
		}
	}
	cell.RowsSalvaged = scrubTotalRows(sys)

	repairStart := sys.SimulatedTime()
	rrep, err := sys.Repair()
	if err != nil {
		return nil, err
	}
	cell.RepairNs = int64(sys.SimulatedTime() - repairStart)
	for _, r := range rrep.Records {
		if r.Err != "" {
			return nil, fmt.Errorf("repair %s: %s", r.View, r.Err)
		}
		cell.CompactBytesBefore += r.CompactBytesBefore
		cell.CompactBytesAfter += r.CompactBytesAfter
	}
	// The warm re-run closes any residual the synthesized range queries
	// could not bound, then must byte-match the pristine baseline.
	healed := scrubRunWorkload(sys)
	cell.RowsRecomputed = scrubTotalRows(sys) - cell.RowsSalvaged
	cell.Converged = healed == baseline
	return cell, nil
}

// ExpScrub is the cmd/vbench experiment wrapper.
func ExpScrub(ExpConfig) (Report, error) {
	res, err := RunScrubBench()
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d queries × %d corruption sites — every cell healed to the pristine digest\n",
		res.Queries, len(res.Cells))
	fmt.Fprintf(&sb, "%-9s | %6s | %8s | %10s | %12s | %10s\n",
		"Site", "rows", "salvaged", "recomputed", "repair simt", "compact")
	sb.WriteString(strings.Repeat("-", 70) + "\n")
	for _, c := range res.Cells {
		ratio := 0.0
		if c.CompactBytesBefore > 0 {
			ratio = 100 * float64(c.CompactBytesAfter) / float64(c.CompactBytesBefore)
		}
		fmt.Fprintf(&sb, "%-9s | %6d | %8d | %10d | %12s | %5.1f%%\n",
			c.Site, c.RowsBefore, c.RowsSalvaged, c.RowsRecomputed,
			time.Duration(c.RepairNs).Round(time.Millisecond), ratio)
	}
	fmt.Fprintf(&sb, "repair simtime p50 %s, p99 %s; compaction amplification %.3f\n",
		time.Duration(res.RepairNsP50).Round(time.Millisecond),
		time.Duration(res.RepairNsP99).Round(time.Millisecond),
		res.CompactionAmplification)
	return Report{Text: sb.String(), Data: res}, nil
}
