package eva_test

// The allocation regression gate on the pooled hot path (DESIGN.md
// §13): the warm scan→filter→apply pipeline — apply served entirely
// from a materialized view, batches recycled through the engine's
// BatchPool — must perform ~zero heap allocations per row. The gate
// measures a *marginal* rate with testing.AllocsPerRun at two scan
// lengths, so per-query overhead (parse, optimize, result assembly)
// cancels and only the per-row cost is asserted. A second test pins
// the committed BENCH_alloc.json baseline to the same threshold, so a
// regressed baseline cannot be committed either.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"eva"
	"eva/internal/vbench"
)

const (
	allocShortFrames = 512
	allocLongFrames  = 2048
)

func allocGateSetup(t *testing.T) *eva.System {
	t.Helper()
	sys, err := eva.Open(eva.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Exec(`LOAD VIDEO 'jackson' INTO video`); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Exec(`CREATE UDF AllocNet
		INPUT  = (frame NDARRAY UINT8(3, ANYDIM, ANYDIM))
		OUTPUT = (allocnet_out BOOLEAN)
		IMPL   = 'bench:parity'
		LOGICAL_TYPE = AllocNet
		PROPERTIES = ('COST_MS' = '1')`)
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterScalarImpl("AllocNet", func(args []eva.Datum) (eva.Datum, error) {
		return eva.NewBool(len(args[0].Bytes())%2 == 0), nil
	})
	return sys
}

func allocGateQuery(frames int) string {
	return fmt.Sprintf(`SELECT id FROM video WHERE id < %d AND AllocNet(frame) = TRUE`, frames)
}

// warmAllocsPerRun returns the average allocations of one warm run of
// the query, after a cold run has materialized the view and a warm-up
// run has let pooled capacities reach steady state.
func warmAllocsPerRun(t *testing.T, sys *eva.System, query string) float64 {
	t.Helper()
	for i := 0; i < 2; i++ {
		res, err := sys.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		sys.Recycle(res.Rows)
	}
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		res, err := sys.Exec(query)
		if err != nil {
			runErr = err
			return
		}
		sys.Recycle(res.Rows)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestWarmPathAllocsPerRow is the live gate: marginal allocations per
// row on the warm view-served path must stay under the same threshold
// the committed baseline is held to.
func TestWarmPathAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	sys := allocGateSetup(t)
	short := warmAllocsPerRun(t, sys, allocGateQuery(allocShortFrames))
	long := warmAllocsPerRun(t, sys, allocGateQuery(allocLongFrames))
	// Re-measure short after long so both queries' pooled capacities
	// are steady; keep the smaller sample.
	if again := warmAllocsPerRun(t, sys, allocGateQuery(allocShortFrames)); again < short {
		short = again
	}
	perRow := (long - short) / float64(allocLongFrames-allocShortFrames)
	t.Logf("warm allocs/run: short=%.1f long=%.1f marginal=%.4f/row", short, long, perRow)
	if perRow > vbench.WarmAllocGate {
		t.Errorf("warm view-served path allocates %.4f/row, gate %.2f", perRow, vbench.WarmAllocGate)
	}
	st := sys.PoolStats()
	if st.Hits == 0 || st.Puts == 0 {
		t.Errorf("pool not engaged on the warm path: %+v", st)
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
