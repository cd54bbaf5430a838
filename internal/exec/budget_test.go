package exec

import (
	"errors"
	"fmt"
	"testing"

	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// measureScan drains a plain scan with no budget, returning the total
// row count and the largest single-batch encoded size it produced.
func measureScan(t *testing.T, hi int64) (rows int, maxBatch int64) {
	t.Helper()
	ctx := testCtx(t, vision.Jackson)
	it, err := build(ctx, scan(0, hi))
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows, maxBatch
		}
		rows += b.Len()
		if sz := int64(b.EncodedSize()); sz > maxBatch {
			maxBatch = sz
		}
	}
}

// TestScanBudgetDegradesBeforeAbort is the executable form of the
// degrade-before-abort contract: a budget one byte too small for a
// full-width scan batch must shrink the batch (recording the
// degradation) and still return every row; only a budget below the
// floor-width batch aborts, and then with the typed ErrMemoryBudget.
func TestScanBudgetDegradesBeforeAbort(t *testing.T) {
	wantRows, maxBatch := measureScan(t, 200)
	if wantRows == 0 || maxBatch == 0 {
		t.Fatalf("measurement run empty: rows=%d maxBatch=%d", wantRows, maxBatch)
	}

	// One byte under a full batch: the scan must halve its width, note
	// the degradation, and complete with identical cardinality.
	ctx := testCtx(t, vision.Jackson)
	bud := server.NewMemBudget(maxBatch - 1)
	ctx.Budget = bud
	out, err := Run(ctx, scan(0, 200))
	if err != nil {
		t.Fatalf("degraded scan failed instead of shrinking: %v", err)
	}
	if out.Len() != wantRows {
		t.Errorf("degraded scan rows = %d, want %d", out.Len(), wantRows)
	}
	if bud.Degrades() == 0 {
		t.Error("budget one byte under a full batch recorded no degradation")
	}
	if bud.Peak() > bud.Limit() {
		t.Errorf("peak %d exceeded limit %d", bud.Peak(), bud.Limit())
	}

	// A budget below any batch at the floor width cannot be satisfied
	// by degrading: the query aborts with the typed error.
	ctx2 := testCtx(t, vision.Jackson)
	ctx2.Budget = server.NewMemBudget(1)
	if _, err := Run(ctx2, scan(0, 200)); !errors.Is(err, server.ErrMemoryBudget) {
		t.Errorf("floor-width breach error = %v, want ErrMemoryBudget", err)
	}
}

// TestScanWhereUnderBudget: a selective scan degrades as a plain one
// does, and selects after the batch is admitted: it keeps the same
// rows, and charges RowCost once for every row it read, however many
// times a batch was rescanned narrower.
func TestScanWhereUnderBudget(t *testing.T) {
	_, maxBatch := measureScan(t, 200)
	ctx := testCtx(t, vision.Jackson)
	bud := server.NewMemBudget(maxBatch - 1)
	ctx.Budget = bud
	where := expr.NewAnd(expr.NewCmp(expr.OpGe, colx("id"), intc(50)), expr.NewCmp(expr.OpLt, colx("id"), intc(150)))
	out, err := Run(ctx, scanWhere(0, 200, where))
	if err != nil {
		t.Fatalf("degraded selective scan failed: %v", err)
	}
	if bud.Degrades() == 0 {
		t.Error("budget one byte under a full batch recorded no degradation")
	}
	if out.Len() != 100 || out.At(0, 0).Int() != 50 || out.At(99, 0).Int() != 149 {
		t.Errorf("rows = %d, want ids 50..149", out.Len())
	}
	if got := ctx.Clock.Snapshot()[simclock.CatOther]; got != 200*costs.RowCost {
		t.Errorf("selection charge %v, want RowCost for each of 200 frames", got)
	}
	if bud.Peak() > bud.Limit() {
		t.Errorf("peak %d exceeded limit %d", bud.Peak(), bud.Limit())
	}
}

// TestSortBudgetAborts: a blocking sort cannot degrade — it must hold
// its whole input — so a budget smaller than the input aborts with the
// typed error, while an adequate one sorts normally and releases its
// reservation.
func TestSortBudgetAborts(t *testing.T) {
	sortPlan := func() plan.Node {
		return &plan.Sort{Input: scan(0, 100), Keys: []plan.SortKey{{Col: "id", Desc: true}}}
	}

	ctx := testCtx(t, vision.Jackson)
	ctx.Budget = server.NewMemBudget(64) // far below 100 rows of frames
	if _, err := Run(ctx, sortPlan()); !errors.Is(err, server.ErrMemoryBudget) {
		t.Errorf("undersized sort error = %v, want ErrMemoryBudget", err)
	}

	ctx2 := testCtx(t, vision.Jackson)
	bud := server.NewMemBudget(1 << 30)
	ctx2.Budget = bud
	out, err := Run(ctx2, sortPlan())
	if err != nil || out.Len() != 100 {
		t.Fatalf("funded sort: rows = %v, %v", out, err)
	}
	if out.At(0, 0).Int() != 99 {
		t.Errorf("sort order wrong: first id = %d, want 99", out.At(0, 0).Int())
	}
	if bud.Peak() == 0 {
		t.Error("funded sort charged nothing to the budget")
	}
}

// TestChargeStagedWalksEachRowOnce: the view-staging charge is a running
// total. Each batch's charge sizes only the rows that batch staged —
// every staged datum is visited once over the query, not once per
// later batch — and the total always equals what sizing the whole
// pending batch would give, so charges and degrade points are the ones
// a full re-walk would produce.
func TestChargeStagedWalksEachRowOnce(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.BatchSize = 4
	ctx.Budget = server.NewMemBudget(1 << 30)
	it, err := build(ctx, detectorNode(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	a := it.(*applyIter)
	visited, staged, batches := 0, 0, 0
	for {
		from := a.stagedRows
		out, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			break
		}
		batches++
		if a.pendingRows == nil || a.stagedRows != a.pendingRows.Len() {
			t.Fatalf("batch %d: charged through row %d of the pending batch %v", batches, a.stagedRows, a.pendingRows)
		}
		if want := int64(a.pendingRows.EncodedSize()); a.staged != want {
			t.Fatalf("batch %d: running charge %d, the pending rows encode to %d", batches, a.staged, want)
		}
		visited += (a.stagedRows - from) * len(a.pendingRows.Schema())
		staged = a.pendingRows.Len() * len(a.pendingRows.Schema())
	}
	if batches != 10 || staged == 0 || visited != staged {
		t.Errorf("%d batches visited %d datums to charge for %d staged ones", batches, visited, staged)
	}
	if a.staged != 0 || a.stagedRows != 0 {
		t.Errorf("the final flush left %d bytes over %d rows reserved", a.staged, a.stagedRows)
	}

	// A budget too small for the staging buffer degrades by flushing, and
	// the next batch's charge starts from the emptied buffer.
	ctx = testCtx(t, vision.MediumUADetrac)
	ctx.BatchSize = 4
	it, err = build(ctx, detectorNode(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	a = it.(*applyIter)
	if _, err := a.next(); err != nil {
		t.Fatal(err)
	}
	a.ctx.Budget = server.NewMemBudget(1)
	if err := a.chargeStaged(); err != nil || a.pendingRows != nil || a.stagedRows != 0 || a.ctx.Budget.Degrades() != 1 {
		t.Errorf("a failed charge: err %v, pending %v, charged rows %d, degrades %d; want an early flush",
			err, a.pendingRows, a.stagedRows, a.ctx.Budget.Degrades())
	}
}

// TestKeyHashIsDemandHash: a UDF keyed on more than the id — a
// classifier's (bbox, id) — has a row a view serves demanded by the key
// hash the view filed for it, and a row no view serves by the hash of its
// encoded key, so every stored row's hash must be the DemandHash of its
// encoded key — after the append that stored it and after a replay
// rebuilt it, in either key order. A key that is the id alone is
// demanded by its id (udf.Runtime.RecordIDs), never by a hash.
func TestKeyHashIsDemandHash(t *testing.T) {
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "label", Kind: types.KindString}, {Name: "bbox", Kind: types.KindString}}
	views := []struct {
		name string
		key  []string
	}{{"cls", []string{"bbox", "id"}}, {"idbox", []string{"id", "bbox"}}}
	dir := t.TempDir()
	check := func(step string) {
		t.Helper()
		eng, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, vw := range views {
			v, err := eng.CreateView(vw.name, schema, vw.key)
			if err != nil {
				t.Fatal(err)
			}
			if v.Rows() == 0 {
				rows := types.NewBatch(schema)
				for id := int64(0); id < 40; id++ {
					for j := int64(0); j < id%3; j++ {
						// A detector's bbox text: with the id, a key past
						// one 32-byte xxhash stripe, as stored keys are.
						bbox := fmt.Sprintf("%.2f,%.2f,%.2f,%.2f", 123.45+float64(id), 67.89+float64(j), 234.56+float64(id), 178.9+float64(j))
						rows.MustAppendRow(types.NewInt(id), types.NewString("car"), types.NewString(bbox))
					}
				}
				if _, err := v.Append(rows, nil); err != nil {
					t.Fatal(err)
				}
			}
			var keyIdx []int
			for _, kc := range vw.key {
				keyIdx = append(keyIdx, schema.IndexOf(kc))
			}
			scan, hashes := v.Scan(), v.KeyHashes()
			if scan.Len() == 0 || len(hashes) != scan.Len() {
				t.Fatalf("%s %s: %d rows, %d hashes", step, vw.name, scan.Len(), len(hashes))
			}
			longest := 0
			for r, h := range hashes {
				key := storage.AppendRowKey(nil, scan, r, keyIdx)
				longest = max(longest, len(key))
				if want := udf.DemandHash(key); h != want {
					t.Errorf("%s %s: row %d filed hash %x, DemandHash of its key %x", step, vw.name, r, h, want)
				}
			}
			if longest <= 32 {
				t.Fatalf("%s: longest key %d bytes, want keys past one 32-byte stripe", vw.name, longest)
			}
		}
	}
	check("after append")
	check("after replay")
}
