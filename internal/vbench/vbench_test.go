package vbench

import (
	"math"
	"testing"
	"time"

	"eva"
	"eva/internal/vision"
)

// tinyUA is a scaled-down UA-DETRAC for fast tests; all workload
// builders scale ranges by frame count.
var tinyUA = vision.Dataset{Name: "tiny-ua", Frames: 600, Width: 960, Height: 540, Density: 8.3, Seed: 0xDE7AC}

func TestWorkloadOverlapStatistics(t *testing.T) {
	high := HighWorkload(vision.MediumUADetrac)
	low := LowWorkload(vision.MediumUADetrac)
	// Under the Jaccard overlap metric the Table-1-faithful query set
	// (Q1–Q4 refine one region) sits around 0.8; the paper's "50%
	// average overlap of frames read" uses an unspecified metric, so we
	// assert the high/low contrast rather than an exact value.
	if got := AvgConsecutiveOverlap(high); got < 0.5 || got > 0.9 {
		t.Errorf("high overlap = %v, want within [0.5, 0.9]", got)
	}
	if got := AvgConsecutiveOverlap(low); got < 0.01 || got > 0.10 {
		t.Errorf("low overlap = %v, want ≈ 0.045", got)
	}
	if len(high.Queries) != 8 || len(low.Queries) != 8 {
		t.Error("each query set has 8 queries (§5.1)")
	}
}

func TestWorkloadScalesWithLength(t *testing.T) {
	short := HighWorkload(vision.ShortUADetrac)
	long := HighWorkload(vision.LongUADetrac)
	medium := HighWorkload(vision.MediumUADetrac)
	// The id ranges scale with video length (§5.5): the same fraction
	// of SHORT (7.5k), MEDIUM (14k), and LONG (28k).
	if short.Queries[0].Hi != frac(7500, 0.714) || medium.Queries[0].Hi != frac(14000, 0.714) || long.Queries[0].Hi != frac(28000, 0.714) {
		t.Errorf("Q1 hi bounds = %d / %d / %d", short.Queries[0].Hi, medium.Queries[0].Hi, long.Queries[0].Hi)
	}
	if 2*medium.Queries[0].Hi != long.Queries[0].Hi {
		t.Error("long range should be twice medium")
	}
}

func TestPermute(t *testing.T) {
	w := HighWorkload(tinyUA)
	p, err := Permute(w, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Queries[0].Label != "Q8-wide" {
		t.Errorf("first query = %s", p.Queries[0].Label)
	}
	if _, err := Permute(w, []int{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("duplicate index should error")
	}
	if _, err := Permute(w, []int{0}); err == nil {
		t.Error("short permutation should error")
	}
	for _, perm := range Permutations {
		if _, err := Permute(w, perm); err != nil {
			t.Errorf("built-in permutation %v invalid: %v", perm, err)
		}
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	w := HighWorkload(tinyUA)
	noreuse, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, w)
	if err != nil {
		t.Fatal(err)
	}
	evaRun, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(evaRun.Queries) != 8 {
		t.Fatalf("queries = %d", len(evaRun.Queries))
	}
	// Same results under both systems.
	for i := range w.Queries {
		if noreuse.Queries[i].Rows != evaRun.Queries[i].Rows {
			t.Errorf("%s rows differ: %d vs %d", w.Queries[i].Label, noreuse.Queries[i].Rows, evaRun.Queries[i].Rows)
		}
	}
	if noreuse.HitPct != 0 {
		t.Errorf("no-reuse hit = %v", noreuse.HitPct)
	}
	if evaRun.HitPct < 30 {
		t.Errorf("EVA hit = %v, want high on vbench-high", evaRun.HitPct)
	}
	sp := evaRun.Speedup(noreuse)
	if sp < 1.5 {
		t.Errorf("EVA speedup = %v, want well above 1", sp)
	}
	bound := SpeedupBound(noreuse.UDFStats, costOf)
	if sp > bound+0.2 {
		t.Errorf("speedup %v exceeds Eq. 7 bound %v", sp, bound)
	}
	if evaRun.ViewBytes <= 0 || evaRun.VideoVirtualBytes <= 0 {
		t.Error("storage metrics missing")
	}
	// Storage overhead is tiny relative to the video (§5.2).
	if ratio := float64(evaRun.ViewBytes) / float64(evaRun.VideoVirtualBytes); ratio > 0.01 {
		t.Errorf("storage overhead ratio = %v, want ≪ 1%%", ratio)
	}
	// View rows converge monotonically.
	last := 0
	for _, q := range evaRun.Queries {
		total := 0
		for _, rows := range q.ViewRows {
			total += rows
		}
		if total < last {
			t.Errorf("view rows shrank: %d -> %d", last, total)
		}
		last = total
	}
}

func costOf(name string) time.Duration {
	p, err := vision.ProfileFor(name)
	if err != nil {
		return time.Millisecond
	}
	return p.Cost
}

func TestSystemsOrdering(t *testing.T) {
	w := HighWorkload(tinyUA)
	sims := map[eva.SystemMode]time.Duration{}
	var rows map[eva.SystemMode]int
	rows = map[eva.SystemMode]int{}
	for _, mode := range Systems() {
		m, err := RunWorkload(eva.Config{Mode: mode}, w)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		sims[mode] = m.SimTotal
		total := 0
		for _, q := range m.Queries {
			total += q.Rows
		}
		rows[mode] = total
	}
	for mode, n := range rows {
		if n != rows[eva.ModeNoReuse] {
			t.Errorf("%s total rows %d != no-reuse %d", mode, n, rows[eva.ModeNoReuse])
		}
	}
	// Fig. 5 shape on high-reuse: EVA < HashStash < NoReuse, and EVA
	// beats FunCache.
	if !(sims[eva.ModeEVA] < sims[eva.ModeHashStash] && sims[eva.ModeHashStash] < sims[eva.ModeNoReuse]) {
		t.Errorf("ordering violated: EVA=%v HashStash=%v NoReuse=%v", sims[eva.ModeEVA], sims[eva.ModeHashStash], sims[eva.ModeNoReuse])
	}
	if !(sims[eva.ModeEVA] < sims[eva.ModeFunCache]) {
		t.Errorf("EVA (%v) should beat FunCache (%v)", sims[eva.ModeEVA], sims[eva.ModeFunCache])
	}
}

func TestLogicalWorkloadRuns(t *testing.T) {
	w := LogicalWorkload(tinyUA)
	if len(w.Queries) != 8 {
		t.Fatal("logical workload should keep 8 queries")
	}
	m, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, w)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := RunWorkload(eva.Config{Mode: eva.ModeEVA, MinCostLogical: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	// EVA's Algorithm 2 should not lose overall to Min-Cost on the
	// workload (individual queries may, per Fig. 10's Q4).
	if m.SimTotal > mc.SimTotal*3/2 {
		t.Errorf("Algorithm 2 total %v far worse than Min-Cost %v", m.SimTotal, mc.SimTotal)
	}
}

func TestWithFilterWorkload(t *testing.T) {
	tinyJackson := vision.Dataset{Name: "tiny-jackson", Frames: 600, Width: 600, Height: 400, Density: 0.1, Seed: 0x7AC50}
	base := HighWorkload(tinyJackson)
	filtered := WithFilter(base)
	if len(filtered.Queries) != len(base.Queries) {
		t.Fatal("filter variant changed query count")
	}
	plain, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, base)
	if err != nil {
		t.Fatal(err)
	}
	flt, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, filtered)
	if err != nil {
		t.Fatal(err)
	}
	// §5.6: on sparse video the filter accelerates EVA further.
	if flt.SimTotal >= plain.SimTotal {
		t.Errorf("filter did not help: %v vs %v", flt.SimTotal, plain.SimTotal)
	}
}

func TestSpeedupBoundSanity(t *testing.T) {
	w := HighWorkload(tinyUA)
	m, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse}, w)
	if err != nil {
		t.Fatal(err)
	}
	bound := SpeedupBound(m.UDFStats, costOf)
	if bound <= 1 || math.IsInf(bound, 0) {
		t.Errorf("bound = %v", bound)
	}
	if got := SpeedupBound(nil, costOf); got != 1 {
		t.Errorf("empty bound = %v", got)
	}
}
