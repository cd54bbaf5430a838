package exec

import (
	"errors"
	"testing"

	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/storage"
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

// TestKeyHashIsDemandHash: the apply operator hashes a key once and
// uses the value both as the view index's KeyHash and as the demand
// set's DemandHash, so the two must be one function.
func TestKeyHashIsDemandHash(t *testing.T) {
	for _, key := range [][]byte{nil, {0}, []byte("a longer encoded key, past one xxhash stripe of 32 bytes")} {
		if storage.KeyHash(key) != udf.DemandHash(key) {
			t.Errorf("KeyHash(%q) != DemandHash", key)
		}
	}
}
