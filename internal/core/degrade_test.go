package core

import (
	"errors"
	"strings"
	"testing"

	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/simclock"
	"eva/internal/udf"
	"eva/internal/vision"
)

const logicalSQL = `SELECT id, label FROM video CROSS APPLY ObjectDetector(frame)
	WHERE id < 200 AND label = 'car'`

// TestDegradeToFallbackModel trips the cheapest detector's breaker
// mid-query and checks that the engine replans onto the next model
// implementing the logical task instead of failing.
func TestDegradeToFallbackModel(t *testing.T) {
	e := newEngine(t)
	inj := faults.New(3)
	// YoloTiny fails permanently on every invocation: its breaker trips
	// after the threshold, the running query aborts with
	// ErrModelUnavailable, and the replan must bind a fallback.
	inj.Rule(faults.SiteUDF(vision.YoloTiny), faults.Rule{Kind: faults.Permanent, Prob: 1})
	e.SetFaults(inj)

	out, err := e.Execute(sel(t, logicalSQL), optimizer.EVAMode(), ExecOpts{Faults: inj})
	if err != nil {
		t.Fatalf("query did not degrade: %v", err)
	}
	if out.Report.DetectorEval != vision.FasterRCNN50 {
		t.Errorf("fallback eval = %s, want %s", out.Report.DetectorEval, vision.FasterRCNN50)
	}
	if len(out.Report.Degraded) == 0 {
		t.Fatal("degradation not reported")
	}
	d := out.Report.Degraded[0]
	if !strings.EqualFold(d.Logical, "ObjectDetector") || d.Chosen != vision.FasterRCNN50 {
		t.Errorf("degradation record = %+v", d)
	}
	found := false
	for _, s := range d.Skipped {
		if s == vision.YoloTiny {
			found = true
		}
	}
	if !found {
		t.Errorf("skipped models %v missing %s", d.Skipped, vision.YoloTiny)
	}
	if out.Rows.Len() == 0 {
		t.Error("degraded query returned no rows")
	}
}

// TestAllModelsDownFailsCleanly opens every detector breaker and checks
// the engine reports a clean error (no panic, no partial result).
func TestAllModelsDownFailsCleanly(t *testing.T) {
	e := newEngine(t)
	inj := faults.New(5)
	inj.Rule(faults.SiteUDFAny, faults.Rule{Kind: faults.Permanent, Prob: 1})
	e.SetFaults(inj)

	_, err := e.Execute(sel(t, logicalSQL), optimizer.EVAMode(), ExecOpts{Faults: inj})
	if err == nil {
		t.Fatal("want error with every model down")
	}
	// Either the replan budget ran out on a failing fallback, or the
	// optimizer found no healthy candidate; both must carry context.
	ok := errors.Is(err, udf.ErrModelUnavailable) ||
		errors.Is(err, udf.ErrEvalFailed) ||
		strings.Contains(err.Error(), "unavailable")
	if !ok {
		t.Errorf("unexpected error shape: %v", err)
	}
}

// TestBreakerRecoveryRestoresNominalChoice lets the tripped model's
// virtual-time cooldown elapse and checks planning returns to it.
// The fault rule is not Limit-bounded: breaker admission is
// batch-granular (the executor freezes one health snapshot per batch),
// so a rule that exhausts mid-batch would let the batch's remaining
// admitted rows succeed and close the freshly tripped breaker again.
func TestBreakerRecoveryRestoresNominalChoice(t *testing.T) {
	e := newEngine(t)
	inj := faults.New(3)
	inj.Rule(faults.SiteUDF(vision.YoloTiny),
		faults.Rule{Kind: faults.Permanent, Prob: 1})
	e.SetFaults(inj)
	if _, err := e.Execute(sel(t, logicalSQL), optimizer.EVAMode(), ExecOpts{Faults: inj}); err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if e.Runtime.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Fatal("breaker should still be open")
	}
	// The detector queries above charged well past the 30 s virtual
	// cooldown only if the workload was large; force it explicitly.
	e.Clock.Charge(simclock.CatOther, udf.DefaultBreakerCooldown)
	res, err := e.Plan(sel(t, logicalSQL), optimizer.EVAMode())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DetectorEval != vision.YoloTiny {
		t.Errorf("post-cooldown eval = %s, want %s", res.Report.DetectorEval, vision.YoloTiny)
	}
}
