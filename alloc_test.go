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
// committed either.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"eva/internal/vbench"
)

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
