package exec

import (
	"slices"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/vision"
)

func detectorNode(lo, hi int64) *plan.ReuseApply {
	return &plan.ReuseApply{
		Input:     scan(lo, hi),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
}

// publishDetRows appends one synthetic detection per frame id in
// [lo, hi) to the store view, standing in for a concurrent session
// publishing its results. Reports the first failure via t.Error so it
// is safe to call off the test goroutine.
func publishDetRows(t *testing.T, v *storage.View, lo, hi int64) {
	rows := types.NewBatch(v.Schema())
	for id := lo; id < hi; id++ {
		if err := rows.AppendRow(
			types.NewInt(id),
			types.NewString("car"),
			types.NewString("0,0,10,10"),
			types.NewFloat(0.9),
			types.NewFloat(100),
		); err != nil {
			t.Error(err)
			return
		}
	}
	if _, err := v.Append(rows, nil); err != nil {
		t.Error(err)
	}
}

// TestSessionsRunPublishesEveryBatch drives the full session-mode apply
// path: the store view joins the probe set, every key is claimed before
// evaluation, and results publish at each batch boundary so a second
// run serves everything from the view.
func TestSessionsRunPublishesEveryBatch(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	ctx.BatchSize = 4
	first, err := Run(ctx, detectorNode(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	stats := ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 12 || stats.Reused != 0 {
		t.Fatalf("first session run stats = %+v", stats)
	}
	v := ctx.Store.View("det_view")
	if v == nil || v.ProcessedCount() != 12 {
		t.Fatalf("store view not published: %v", v)
	}
	second, err := Run(ctx, detectorNode(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	stats = ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 12 || stats.Reused != 12 {
		t.Fatalf("second session run stats = %+v", stats)
	}
	if first.Len() != second.Len() {
		t.Fatalf("rows differ across session reuse: %d vs %d", first.Len(), second.Len())
	}
}

// TestSessionsReprobeServesPublishedRows exercises the re-probe step in
// isolation: after a concurrent session publishes rows for a prefix of
// the batch's keys, reprobe must serve exactly those rows and leave the
// rest queued for evaluation.
func TestSessionsReprobeServesPublishedRows(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	it, err := build(ctx, detectorNode(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	a := it.(*applyIter)
	b, err := a.in.next()
	if err != nil || b == nil || b.Len() != 8 {
		t.Fatalf("input batch: %v, %v", b, err)
	}
	decisions, err := a.probePhase(b)
	if err != nil {
		t.Fatal(err)
	}
	if keys := a.unservedKeys(); len(keys) != 8 {
		t.Fatalf("unserved keys = %d, want 8", len(keys))
	}
	publishDetRows(t, ctx.Store.View("det_view"), 0, 3)
	a.reprobe(decisions)
	viewRows := map[int]int{}
	for _, r := range a.probed.In {
		viewRows[r]++
	}
	served := 0
	for r := range decisions {
		if decisions[r].served {
			if viewRows[r] == 0 {
				t.Errorf("row %d served with no view rows", r)
			}
			served++
		} else if viewRows[r] > 0 {
			t.Errorf("row %d not served, with %d view rows", r, viewRows[r])
		}
	}
	if served != 3 {
		t.Errorf("reprobe served %d rows, want 3", served)
	}
	if rest := a.unservedKeys(); len(rest) != 5 {
		t.Errorf("unserved after reprobe = %d, want 5", len(rest))
	}
}

// TestSessionsClaimWaitsForHolder pits claimPhase against a conflicting
// claim held by the test: the phase must wait — holding no claims of
// its own — until the holder publishes and releases, then serve the
// published rows on re-probe instead of re-evaluating them.
func TestSessionsClaimWaitsForHolder(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	it, err := build(ctx, detectorNode(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	a := it.(*applyIter)
	b, err := a.in.next()
	if err != nil || b == nil {
		t.Fatalf("input batch: %v, %v", b, err)
	}
	decisions, err := a.probePhase(b)
	if err != nil {
		t.Fatal(err)
	}
	// A copy: the iterator reuses the returned slice on its next call.
	keys := slices.Clone(a.unservedKeys())
	v := ctx.Store.View("det_view")
	granted, _ := v.ClaimKeys(keys)
	if !granted {
		t.Fatal("claim on a fresh view not granted")
	}
	// The holder publishes and releases while claimPhase waits.
	timer := time.AfterFunc(50*time.Millisecond, func() {
		publishDetRows(t, v, 0, 4)
		v.ReleaseKeys(keys)
	})
	defer timer.Stop()
	a.claimPhase(decisions)
	// Every row is either served from the published rows (the holder
	// won the race to the claim table) or claimed for evaluation.
	for r := range decisions {
		if !decisions[r].served && len(a.claimed) == 0 {
			t.Fatalf("row %d neither served nor claimed", r)
		}
	}
	a.releaseClaims()
}

// TestStagedViewRowsChargeAndDegrade covers the view-staging charge
// point: a budget with room for the scan batch but not the staged view
// rows must degrade by flushing early — never aborting — while a
// generous budget holds the staging reservation to the end.
func TestStagedViewRowsChargeAndDegrade(t *testing.T) {
	// Size the budget from a measurement run: one full scan batch plus a
	// sliver, so the scan charge fits and the staging charge cannot.
	measured := testCtx(t, vision.MediumUADetrac)
	mit, err := build(measured, scan(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	var maxBatch int64
	for {
		mb, err := mit.next()
		if err != nil {
			t.Fatal(err)
		}
		if mb == nil {
			break
		}
		if sz := int64(mb.EncodedSize()); sz > maxBatch {
			maxBatch = sz
		}
	}

	ctx := testCtx(t, vision.MediumUADetrac)
	bud := server.NewMemBudget(maxBatch + 64)
	ctx.Budget = bud
	out, err := Run(ctx, detectorNode(0, 64))
	if err != nil {
		t.Fatalf("staging breach aborted instead of degrading: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("degraded apply produced no rows")
	}
	if bud.Degrades() == 0 {
		t.Error("tight budget recorded no staging degradation")
	}
	if bud.Peak() > bud.Limit() {
		t.Errorf("peak %d exceeded limit %d", bud.Peak(), bud.Limit())
	}
	if v := ctx.Store.View("det_view"); v == nil || v.Rows() == 0 {
		t.Error("early flush left no rows in the store view")
	}

	ctx2 := testCtx(t, vision.MediumUADetrac)
	bud2 := server.NewMemBudget(1 << 30)
	ctx2.Budget = bud2
	out2, err := Run(ctx2, detectorNode(0, 64))
	if err != nil || out2.Len() != out.Len() {
		t.Fatalf("funded apply rows = %v, %v (want %d)", out2, err, out.Len())
	}
	if bud2.Degrades() != 0 {
		t.Errorf("funded apply degraded %d times", bud2.Degrades())
	}
}
