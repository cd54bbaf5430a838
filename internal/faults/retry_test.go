package faults_test

import (
	"fmt"
	"testing"
	"time"

	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/storage"
)

// TestRetry pins the transient half of the one retry loop
// (storage.Engine.Retry, which needs no engine for it): reruns only
// while the error is a transient fault, at most costs.RetryMaxAttempts
// runs, and the backoff of rerun k charged to the caller's clock before
// it.
func TestRetry(t *testing.T) {
	transient := fmt.Errorf("write: %w", &faults.Fault{Kind: faults.Transient, Site: "view:write:v"})
	permanent := &faults.Fault{Kind: faults.Permanent, Site: "view:write:v"}
	backoff := func(reruns int) time.Duration {
		var d time.Duration
		for k := 2; k < 2+reruns; k++ {
			d += costs.RetryBackoff(k)
		}
		return d
	}
	for _, tc := range []struct {
		name     string
		errs     []error // the error of each run; the last repeats
		wantRuns int
		wantErr  error
	}{
		{"first run succeeds", []error{nil}, 1, nil},
		{"absorbed after two faults", []error{transient, transient, nil}, 3, nil},
		{"budget exhausted", []error{transient}, costs.RetryMaxAttempts, transient},
		{"permanent is not retried", []error{permanent}, 1, permanent},
		{"permanent after a transient", []error{transient, permanent}, 2, permanent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &simclock.Clock{}
			runs := 0
			var e *storage.Engine
			err := e.Retry(clock, func() error {
				err := tc.errs[min(runs, len(tc.errs)-1)]
				runs++
				return err
			})
			if runs != tc.wantRuns || err != tc.wantErr {
				t.Errorf("runs = %d, err = %v; want %d, %v", runs, err, tc.wantRuns, tc.wantErr)
			}
			if got, want := clock.Total(), backoff(tc.wantRuns-1); got != want {
				t.Errorf("charged %s, want %s", got, want)
			}
		})
	}
}
