package udf

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/vision"
)

// TestRetryPaths is the table-driven failure-path suite: transient
// faults are retried with backoff charged to the virtual clock,
// permanent faults surface with the UDF name wrapped, and the
// Evaluated / Failed / Retried counters stay consistent across failed
// attempts.
func TestRetryPaths(t *testing.T) {
	payload := vision.MediumUADetrac.EncodeFrame(42)
	site := faults.SiteUDF(vision.FasterRCNN50)
	key := strings.ToLower(vision.FasterRCNN50)

	cases := []struct {
		name      string
		rule      faults.Rule
		calls     int
		wantErr   bool
		wantEval  int
		wantFail  int
		wantRetry int
		// wantBackoff is the exact CatRetry charge.
		wantBackoff time.Duration
	}{
		{
			name:     "no faults",
			calls:    1,
			wantEval: 1,
		},
		{
			name:        "one transient blip, retried to success",
			rule:        faults.Rule{Kind: faults.Transient, At: []int{1}},
			calls:       1,
			wantEval:    1,
			wantFail:    1,
			wantRetry:   1,
			wantBackoff: costs.RetryBackoff(2),
		},
		{
			name:        "two transient blips in one invocation",
			rule:        faults.Rule{Kind: faults.Transient, At: []int{1, 2}},
			calls:       1,
			wantEval:    1,
			wantFail:    2,
			wantRetry:   2,
			wantBackoff: costs.RetryBackoff(2) + costs.RetryBackoff(3),
		},
		{
			name:        "transient faults exhaust all attempts",
			rule:        faults.Rule{Kind: faults.Transient, Prob: 1},
			calls:       1,
			wantErr:     true,
			wantEval:    0,
			wantFail:    costs.RetryMaxAttempts,
			wantRetry:   costs.RetryMaxAttempts - 1,
			wantBackoff: costs.RetryBackoff(2) + costs.RetryBackoff(3) + costs.RetryBackoff(4),
		},
		{
			name:     "permanent fault fails immediately, no retry",
			rule:     faults.Rule{Kind: faults.Permanent, At: []int{1}},
			calls:    1,
			wantErr:  true,
			wantFail: 1,
		},
		{
			// At matches the retry attempt, so Limit bounds the blast
			// radius across invocations: the first invocation's attempt
			// 1 faults (and retries clean), the second runs untouched.
			name:      "limit confines fault to first invocation",
			rule:      faults.Rule{Kind: faults.Transient, At: []int{1}, Limit: 1},
			calls:     2,
			wantEval:  2,
			wantFail:  1,
			wantRetry: 1,
			// One backoff; the second invocation never failed.
			wantBackoff: costs.RetryBackoff(2),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, clock := newRuntime(t)
			inj := faults.New(1)
			if tc.rule.Kind != 0 || tc.rule.Prob > 0 || len(tc.rule.At) > 0 {
				inj.Rule(site, tc.rule)
			}
			r.SetInjector(inj)

			var lastErr error
			for i := 0; i < tc.calls; i++ {
				r.RecordDemandKey(key, []byte("42"))
				_, lastErr = r.EvalDetector(vision.FasterRCNN50, payload)
			}
			if tc.wantErr != (lastErr != nil) {
				t.Fatalf("err = %v, wantErr = %v", lastErr, tc.wantErr)
			}
			if tc.wantErr && !strings.Contains(lastErr.Error(), vision.FasterRCNN50) {
				t.Errorf("error does not name the UDF: %v", lastErr)
			}
			st := r.CounterSnapshot()[key]
			if st.Evaluated != tc.wantEval || st.Failed != tc.wantFail || st.Retried != tc.wantRetry {
				t.Errorf("stats = %+v, want eval=%d fail=%d retry=%d",
					st, tc.wantEval, tc.wantFail, tc.wantRetry)
			}
			if got := clock.Snapshot()[simclock.CatRetry]; got != tc.wantBackoff {
				t.Errorf("backoff charged = %v, want %v", got, tc.wantBackoff)
			}
			// Every attempt (failed or not) pays the profiled model cost.
			p, _ := vision.ProfileFor(vision.FasterRCNN50)
			attempts := tc.wantEval + tc.wantFail
			if got := clock.Snapshot()[simclock.CatUDF]; got != time.Duration(attempts)*p.Cost {
				t.Errorf("UDF charge = %v over %d attempts (cost %v)", got, attempts, p.Cost)
			}
		})
	}
}

func TestScalarPermanentErrorWrapsName(t *testing.T) {
	r, _ := newRuntime(t)
	inj := faults.New(1)
	inj.Rule(faults.SiteUDF("CarType"), faults.Rule{Kind: faults.Permanent, At: []int{1}})
	r.SetInjector(inj)
	_, err := r.EvalScalar("CarType", nil)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "CarType") {
		t.Errorf("error does not name the UDF: %v", err)
	}
	if f, ok := faults.AsFault(err); !ok || f.Kind != faults.Permanent {
		t.Errorf("injected fault not preserved in chain: %v", err)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	r, clock := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(7)
	inj := faults.New(1)
	// Permanent faults on every attempt until we clear the rules by
	// installing a fresh injector later.
	inj.Rule(faults.SiteUDF(vision.YoloTiny), faults.Rule{Kind: faults.Permanent, Prob: 1, Limit: DefaultBreakerThreshold})
	r.SetInjector(inj)

	for i := 0; i < DefaultBreakerThreshold; i++ {
		if _, err := r.EvalDetector(vision.YoloTiny, payload); err == nil {
			t.Fatal("injected permanent fault did not surface")
		}
	}
	if r.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Fatal("breaker should be open after consecutive failures")
	}
	// While open, evaluations fail fast with ErrModelUnavailable.
	_, err := r.EvalDetector(vision.YoloTiny, payload)
	if !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("open breaker error = %v", err)
	}
	// Other models are unaffected.
	if !r.DefaultDomain().ModelHealthy(vision.FasterRCNN50) {
		t.Error("healthy model reported broken")
	}
	// Advance the virtual clock past the cooldown: a probe is allowed
	// and, with the fault rule exhausted, closes the breaker.
	clock.Charge(simclock.CatOther, DefaultBreakerCooldown)
	if !r.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Fatal("cooldown elapsed; model should accept a probe")
	}
	if _, err := r.EvalDetector(vision.YoloTiny, payload); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if !r.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Error("successful probe should close the breaker")
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	r, clock := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(7)
	inj := faults.New(1)
	inj.Rule(faults.SiteUDF(vision.YoloTiny), faults.Rule{Kind: faults.Permanent, Prob: 1})
	r.SetInjector(inj)
	for i := 0; i < DefaultBreakerThreshold; i++ {
		if _, err := r.EvalDetector(vision.YoloTiny, payload); err == nil {
			t.Fatal("want failure")
		}
	}
	if r.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Fatal("breaker should be open")
	}
	clock.Charge(simclock.CatOther, DefaultBreakerCooldown)
	// Probe runs (and fails): breaker re-arms with a fresh cooldown.
	if _, err := r.EvalDetector(vision.YoloTiny, payload); errors.Is(err, ErrModelUnavailable) {
		t.Fatal("probe should have been allowed through")
	}
	if r.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Error("failed probe should re-open the breaker")
	}
}

func TestFailureRateFeedsCostModel(t *testing.T) {
	r, _ := newRuntime(t)
	payload := vision.MediumUADetrac.EncodeFrame(3)
	if r.DefaultDomain().FailureRate(vision.FasterRCNN50) != 0 {
		t.Fatal("fresh model should report rate 0")
	}
	inj := faults.New(1)
	inj.Rule(faults.SiteUDF(vision.FasterRCNN50), faults.Rule{Kind: faults.Transient, At: []int{1}})
	r.SetInjector(inj)
	if _, err := r.EvalDetector(vision.FasterRCNN50, payload); err != nil {
		t.Fatal(err)
	}
	// 1 failed attempt, 1 success → rate 0.5.
	if got := r.DefaultDomain().FailureRate(vision.FasterRCNN50); got != 0.5 {
		t.Errorf("failure rate = %v", got)
	}
	base := 100 * time.Millisecond
	adj := costs.RetryAdjustedCost(base, 0.5)
	if adj <= base {
		t.Errorf("adjusted cost %v should exceed base %v", adj, base)
	}
	if costs.RetryAdjustedCost(base, 0) != base {
		t.Error("zero failure rate must not perturb the cost model")
	}
}
