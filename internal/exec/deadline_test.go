package exec

import (
	"errors"
	"testing"
	"time"

	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/plan"
	"eva/internal/vision"
)

func TestDeadlineUnlimitedByDefault(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	out, err := Run(ctx, scan(0, 1000))
	if err != nil || out.Len() != 1000 {
		t.Fatalf("rows=%d err=%v", out.Len(), err)
	}
}

func TestDeadlineExpiresMidScan(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	// 64-frame batches at ReadVideoCost each: budget for ~3 batches.
	ctx.Deadline = 200 * costs.ReadVideoCost
	_, err := Run(ctx, scan(0, 10000))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The run stopped near the budget, not after draining the scan.
	if total := ctx.Clock.Total(); total > 400*costs.ReadVideoCost {
		t.Errorf("ran %v past a %v budget", total, ctx.Deadline)
	}
}

func TestDeadlineIsPerRun(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Deadline = 200 * costs.ReadVideoCost
	if _, err := Run(ctx, scan(0, 10000)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("first run: %v", err)
	}
	// The budget re-arms from the clock's current total: a small query
	// still fits even though the clock already advanced.
	out, err := Run(ctx, scan(0, 100))
	if err != nil || out.Len() != 100 {
		t.Fatalf("second run: rows=%d err=%v", out.Len(), err)
	}
}

func TestDeadlineInsidePipelineBreaker(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Deadline = 200 * costs.ReadVideoCost
	// GroupBy drains its whole input before emitting: the guard on its
	// input must abort the drain loop.
	g := &plan.GroupBy{
		Input: scan(0, 10000),
		Aggs:  []plan.Agg{{Kind: plan.AggCount, Name: "n"}},
	}
	_, err := Run(ctx, g)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// TestSelectiveScanStopsAtDeadline: a scan whose Where rejects every
// row passes no batch on, so no guard runs between its reads; its own
// loop checks the deadline before each, and the run aborts within one
// batch of the budget instead of draining the table.
func TestSelectiveScanStopsAtDeadline(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	ctx.Deadline = 200 * costs.ReadVideoCost
	none := expr.NewCmp(expr.OpEq, colx("id"), intc(-1))
	if _, err := Run(ctx, scanWhere(0, 10000, none)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	batch := time.Duration(ctx.BatchSize) * (costs.ReadVideoCost + costs.RowCost)
	if total := ctx.Clock.Total(); total >= ctx.Deadline+batch {
		t.Errorf("ran %v on a %v budget, more than one batch (%v) past it", total, ctx.Deadline, batch)
	}
}

func TestInjectedDeadlineExpiry(t *testing.T) {
	ctx := testCtx(t, vision.Jackson)
	inj := faults.New(7)
	// The third deadline check aborts the query regardless of budget.
	inj.Rule(faults.SiteDeadline, faults.Rule{Kind: faults.Permanent, At: []int{3}})
	ctx.Faults = inj
	_, err := Run(ctx, scan(0, 10000))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := faults.AsFault(err); !ok {
		t.Errorf("injected fault lost from chain: %v", err)
	}
	if ev := inj.Events(); len(ev) != 1 || ev[0].Call != 3 {
		t.Errorf("deadline fault events %v, want one at the third check", ev)
	}
}

func TestDeadlineZeroBudgetStillRunsUntilCharged(t *testing.T) {
	// A fresh clock with a generous budget never trips on an empty
	// plan; sanity-check the boundary arithmetic.
	ctx := testCtx(t, vision.Jackson)
	ctx.Deadline = time.Hour
	out, err := Run(ctx, scan(0, 10))
	if err != nil || out.Len() != 10 {
		t.Fatalf("rows=%d err=%v", out.Len(), err)
	}
}
