// Package testutil holds test helpers shared across packages. It must
// only be imported from _test.go files.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// CheckNoGoroutineLeak polls until the process goroutine count drops
// back to at most before, failing the test after five seconds.
// Capture before with runtime.NumGoroutine() ahead of the suspect
// work; exited goroutines are reaped asynchronously, hence the poll.
// lint:testonly a helper the tests of several packages share
func CheckNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
