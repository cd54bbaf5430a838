package eva_test

// The allocation regression gate on the pooled hot path (DESIGN.md
// §13): the warm scan→filter→apply pipeline — apply served entirely
// from a materialized view, batches recycled through the engine's
// BatchPool — must perform ~zero heap allocations per row. The gate
// runs the benchmark's own cell (internal/vbench/alloc.go): a
// *marginal* rate between two scan lengths, so per-query overhead
// (parse, optimize, result assembly) cancels and only the per-row cost
// is asserted. A second test pins the committed BENCH_alloc.json
// baseline to the same threshold, so a regressed baseline cannot be
// committed either. A third gate bounds what planning a query
// allocates, a fourth what the covered probe step and its demand
// record allocate per batch, a fifth what a warm statement allocates,
// its operators' scratch drawn from the statements before it, and a sixth
// what loading a table allocates on a directory that already holds it.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"eva"
	"eva/internal/catalog"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vbench"
	"eva/internal/vision"
)

// TestCoveredProbeAllocs: once a prober's scratch has grown, the covered
// step of View.Probe and the demand record of the batch it served —
// one id interval — allocate nothing per batch. The view is a
// detector's over 4 096 frames of the sparse dataset's shape: one frame
// in ten has two objects, the rest none; the batches are the scan's, 256
// consecutive frames each.
func TestCoveredProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const frames, width = 4096, 256
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "label", Kind: types.KindString}}
	v, err := store.CreateView("det", schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := types.NewBatch(schema)
	var zero [][]types.Datum
	for id := int64(0); id < frames; id++ {
		if id%10 != 0 {
			zero = append(zero, []types.Datum{types.NewInt(id)})
			continue
		}
		for range 2 {
			if err := rows.AppendRow(types.NewInt(id), types.NewString("car")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := v.Append(rows, zero); err != nil {
		t.Fatal(err)
	}
	var batches []*types.Batch
	for lo := int64(0); lo < frames; lo += width {
		b := types.NewBatch(schema[:1])
		for id := lo; id < lo+width; id++ {
			if err := b.AppendRow(types.NewInt(id)); err != nil {
				t.Fatal(err)
			}
		}
		batches = append(batches, b)
	}
	sel := make([]int, width)
	for i := range sel {
		sel[i] = i
	}
	rt := udf.NewRuntime(catalog.New(), &simclock.Clock{})
	var pk storage.ProbeKeys
	var out storage.Probed
	spans, keyIdx := make([]types.IDRange, 1), []int{0}
	next, failed := 0, ""
	allocs := testing.AllocsPerRun(len(batches)-1, func() {
		b := batches[next]
		next++
		out.Hits, out.In, out.Srcs, out.Rows = out.Hits[:0], out.In[:0], out.Srcs[:0], out.Rows[:0]
		if err := pk.Reset(b, keyIdx); err != nil {
			failed = err.Error()
			return
		}
		if err := v.Probe(&pk, sel, &out); err != nil || !out.Covered || len(out.Hits) != width/10+1 && len(out.Hits) != width/10 {
			failed = fmt.Sprintf("batch %d: covered %v, %d hits, %v", next-1, out.Covered, len(out.Hits), err)
			return
		}
		lo, hi, _ := pk.Dense()
		spans[0] = types.IDRange{Lo: lo, Hi: hi}
		rt.RecordIDs("fasterrcnnresnet50", spans, width, width)
	})
	if failed != "" {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Errorf("covered probe + demand record: %.1f allocs per batch, want 0", allocs)
	}
	if st := rt.CounterSnapshot()["fasterrcnnresnet50"]; st.Distinct != frames || st.Total != frames {
		t.Errorf("demand after every batch: %+v, want %d distinct of %d", st, frames, frames)
	}
}

// TestWarmPathAllocsPerRow is the live gate: marginal allocations per
// row on the warm view-served path must stay under the same threshold
// the committed baseline is held to.
func TestWarmPathAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	cell, err := vbench.RunWarmPathCell(vbench.DefaultAllocBench())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm allocs/run: short=%.1f long=%.1f marginal=%.4f/row", cell.AllocsPerRunShort, cell.AllocsPerRunLong, cell.AllocsPerRow)
	if cell.AllocsPerRow > vbench.WarmAllocGate {
		t.Errorf("warm view-served path allocates %.4f/row, gate %.2f", cell.AllocsPerRow, vbench.WarmAllocGate)
	}
	if cell.PoolHits == 0 || cell.PoolPuts == 0 {
		t.Errorf("pool not engaged on the warm path: %+v", cell)
	}
}

// TestEvalPathAllocsPerRow is the live gate on the evaluate path (no
// reuse: a detector and a classifier run on every row): marginal
// allocations per detector output row must stay under the threshold the
// committed eval-path cell is held to — the row's bbox string, and
// nothing per classifier call.
func TestEvalPathAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	cell, err := vbench.RunEvalPathCell(vbench.DefaultAllocBench())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("evaluate path: %.4f allocs and %.1f bytes per detector output row", cell.AllocsPerRow, cell.BytesPerRow)
	if cell.AllocsPerRow > vbench.EvalPathAllocGate {
		t.Errorf("evaluate path allocates %.4f per detector output row, gate %.2f", cell.AllocsPerRow, vbench.EvalPathAllocGate)
	}
	if cell.PoolHits == 0 || cell.PoolPuts == 0 {
		t.Errorf("pool not engaged on the evaluate path: %+v", cell)
	}
}

// planningAllocGate bounds the allocations of one EXPLAIN — lex, parse,
// symbolic INTER/DIFF/UNION with Algorithm 1's reduction, costing and
// plan building, no execution — of any VBENCH-HIGH query on a warm
// 600-frame system. With the symbolic algebra's sorted-slice
// representation the costliest query (Q3) takes about 850; with the
// map-based one it took about 2 200 (about 1 300 on average).
const planningAllocGate = 1000

// TestPlanningAllocs is the gate on planning: once VBENCH-HIGH has run
// and its views are materialized, EXPLAIN of each of its queries must
// allocate fewer than planningAllocGate objects.
func TestPlanningAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ds := vision.MediumUADetrac
	ds.Frames = 600
	sys, err := eva.Open(eva.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", ds); err != nil {
		t.Fatal(err)
	}
	wl := vbench.HighWorkload(ds)
	for _, q := range wl.Queries {
		if _, err := sys.Exec(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
	}
	for _, q := range wl.Queries {
		stmt := "EXPLAIN " + q.SQL
		var err error
		n := testing.AllocsPerRun(5, func() { _, err = sys.Exec(stmt) })
		if err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
		t.Logf("%s: %.0f allocs to plan", q.Label, n)
		if n >= planningAllocGate {
			t.Errorf("planning %s allocates %.0f objects, gate %d", q.Label, n, planningAllocGate)
		}
	}
}

// warmStatementByteGate bounds the bytes the warmest run of a VBENCH-HIGH
// query allocates on a warm 600-frame system, views materialized. The
// apply operators' per-batch scratch — decisions, selections, probe
// keys, probed rows, gather triples and the bound programs' selection
// vectors — outlives the statement (DESIGN.md §13), so a warm statement
// grows none of it: the queries allocate 20 to 120 KiB a run, where
// growing that scratch again took 270 to 470 KiB.
const warmStatementByteGate = 160 << 10

// TestWarmStatementScratch is the gate on statement scratch: once
// VBENCH-HIGH has run and its views are materialized, running each of its
// queries again must allocate fewer bytes than warmStatementByteGate.
// Each query runs three times and the least of the three counts, so that
// a collection which empties the scratch pool between two runs — a
// sync.Pool's right — cannot fail the gate.
func TestWarmStatementScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ds := vision.MediumUADetrac
	ds.Frames = 600
	sys, err := eva.Open(eva.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", ds); err != nil {
		t.Fatal(err)
	}
	wl := vbench.HighWorkload(ds)
	for _, q := range wl.Queries {
		if _, err := sys.Exec(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
	}
	var ms runtime.MemStats
	for _, q := range wl.Queries {
		least := uint64(math.MaxUint64)
		for range 3 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			res, err := sys.Exec(q.SQL)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatalf("%s: %v", q.Label, err)
			}
			sys.Recycle(res.Rows)
			least = min(least, ms.TotalAlloc-before)
		}
		t.Logf("%s: %d KiB a warm run", q.Label, least>>10)
		if least >= warmStatementByteGate {
			t.Errorf("a warm run of %s allocates %d KiB, gate %d KiB", q.Label, least>>10, warmStatementByteGate>>10)
		}
	}
}

// TestAllocBaselineCommitted pins the committed BENCH_alloc.json: the
// reuse engine's recorded rate must satisfy the gate, the pool must
// have been engaged, and the pooled/unpooled × workers matrix must be
// complete with byte-identical digests.
func TestAllocBaselineCommitted(t *testing.T) {
	data, err := os.ReadFile("BENCH_alloc.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var res vbench.AllocResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	var evaCell, evalCell *vbench.AllocCell
	for i := range res.Cells {
		switch res.Cells[i].Mode {
		case "eva-view-served":
			evaCell = &res.Cells[i]
		case "eval-path":
			evalCell = &res.Cells[i]
		}
	}
	if evaCell == nil || evalCell == nil {
		t.Fatal("baseline lacks the eva-view-served or the eval-path cell")
	}
	if evalCell.AllocsPerRow > vbench.EvalPathAllocGate {
		t.Errorf("committed baseline allocates %.4f per detector output row on the evaluate path, gate %.2f",
			evalCell.AllocsPerRow, vbench.EvalPathAllocGate)
	}
	if evaCell.AllocsPerRow > vbench.WarmAllocGate {
		t.Errorf("committed baseline allocates %.4f/row, gate %.2f", evaCell.AllocsPerRow, vbench.WarmAllocGate)
	}
	if evaCell.PoolHits == 0 || evaCell.PoolPuts == 0 {
		t.Errorf("committed baseline shows pool not engaged: %+v", *evaCell)
	}
	want := map[string]bool{}
	for _, pooled := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			want[fmt.Sprintf("%v/%d", pooled, w)] = true
		}
	}
	for _, cell := range res.Matrix {
		delete(want, fmt.Sprintf("%v/%d", cell.Pooled, cell.Workers))
		if cell.Digest != res.Matrix[0].Digest {
			t.Errorf("matrix digest diverges at pooled=%v workers=%d", cell.Pooled, cell.Workers)
		}
	}
	if len(want) != 0 {
		t.Errorf("matrix missing cells: %v", want)
	}
}

// loadDatasetAllocBound bounds the allocations of LoadDataset on a
// populated directory: reading the table record and decoding its
// statistics. Sampling the statistics instead costs about 9 700 on the
// dataset below.
const loadDatasetAllocBound = 150

// TestLoadDatasetReadsStatsBack: on a directory that holds the table,
// LoadDataset builds no statistics; its allocations stay under a bound
// one sampling pass exceeds many times over.
func TestLoadDatasetReadsStatsBack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	// The benchmark's dense shape: 4 200 frames at 8.3 objects a frame.
	ds := eva.Dataset{Name: "bench-dense", Frames: 4200, Width: 960, Height: 540, Density: 8.3, Seed: 0xB0B}
	const runs = 4
	dir := t.TempDir()
	open := func() *eva.System {
		sys, err := eva.Open(eva.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	sys := open()
	var tables []string
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once more to warm up
		tables = append(tables, fmt.Sprintf("t%d", i))
		if err := sys.LoadDataset(tables[i], ds); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = open()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := sys.LoadDataset(tables[next], ds); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("LoadDataset on a populated directory: %v allocations", allocs)
	if allocs > loadDatasetAllocBound {
		t.Errorf("LoadDataset on a populated directory made %v allocations, want at most %d", allocs, loadDatasetAllocBound)
	}
}
