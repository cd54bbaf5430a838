package server

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// never is a wedge-guard source that never fires, so tests exercise
// the virtual-clock admission path alone.
func never(time.Duration) <-chan time.Time { return nil }

func TestAdmitImmediateAndOverload(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2, QueueDepth: 0, QueueTimeout: time.Second})
	c.SetWedgeGuard(never)

	g1, err := c.Admit()
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	g2, err := c.Admit()
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if _, err := c.Admit(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit 3 = %v, want ErrOverloaded", err)
	}
	g1.Release(time.Millisecond)
	g2.Release(time.Millisecond)

	s := c.Stats()
	if s.Admitted != 2 || s.ShedOverload != 1 || s.ShedTimeout != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestQueuedWaiterGrantedOnRelease(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: time.Second})
	c.SetWedgeGuard(never)

	g1, err := c.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}

	type res struct {
		g   *Grant
		err error
	}
	done := make(chan res, 1)
	var grp Group
	grp.Go(func() {
		g, err := c.Admit()
		done <- res{g, err}
	})
	waitForQueue(t, c, 1)

	g1.Release(7 * time.Millisecond)
	r := <-done
	grp.Wait()
	if r.err != nil {
		t.Fatalf("queued admit: %v", r.err)
	}
	r.g.Release(time.Millisecond)

	s := c.Stats()
	if s.Admitted != 2 {
		t.Fatalf("admitted = %d, want 2", s.Admitted)
	}
	if s.QueueWaitP99 != 7*time.Millisecond {
		t.Fatalf("p99 wait = %v, want 7ms", s.QueueWaitP99)
	}
}

func TestVirtualQueueTimeout(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: 10 * time.Millisecond})
	c.SetWedgeGuard(never)

	g1, err := c.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	errs := make(chan error, 1)
	var grp Group
	grp.Go(func() {
		_, err := c.Admit()
		errs <- err
	})
	waitForQueue(t, c, 1)

	// The running query's simulated cost exceeds the waiter's
	// virtual deadline, so release sheds it instead of granting.
	g1.Release(50 * time.Millisecond)
	if err := <-errs; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued admit = %v, want ErrQueueTimeout", err)
	}
	grp.Wait()

	// The token was freed, not handed to the expired waiter.
	g2, err := c.Admit()
	if err != nil {
		t.Fatalf("admit after timeout: %v", err)
	}
	g2.Release(0)

	s := c.Stats()
	if s.ShedTimeout != 1 {
		t.Fatalf("shedTimeout = %d, want 1", s.ShedTimeout)
	}
}

func TestWedgeGuardSheds(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: time.Hour})
	fire := make(chan time.Time)
	c.SetWedgeGuard(func(time.Duration) <-chan time.Time { return fire })

	g1, err := c.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	errs := make(chan error, 1)
	var grp Group
	grp.Go(func() {
		_, err := c.Admit()
		errs <- err
	})
	waitForQueue(t, c, 1)

	fire <- time.Time{}
	if err := <-errs; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued admit = %v, want ErrQueueTimeout", err)
	}
	grp.Wait()

	// The abandoned waiter left the queue: release frees the token.
	g1.Release(time.Millisecond)
	g2, err := c.Admit()
	if err != nil {
		t.Fatalf("admit after abandon: %v", err)
	}
	g2.Release(0)
}

func TestGrantReleaseIdempotentAndNilSafe(t *testing.T) {
	var nilC *Controller
	g, err := nilC.Admit()
	if err != nil {
		t.Fatalf("nil controller admit: %v", err)
	}
	g.Release(time.Second) // nil grant

	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 0, QueueTimeout: time.Second})
	c.SetWedgeGuard(never)
	g1, err := c.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	g1.Release(time.Millisecond)
	g1.Release(time.Millisecond) // no double-free of the token
	if c.inUseNow() != 0 {
		t.Fatalf("inUse = %d after double release", c.inUseNow())
	}
	if nilC.Stats() != (Stats{}) {
		t.Fatal("nil controller stats not zero")
	}
}

func TestStatsPercentiles(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 8, QueueTimeout: time.Hour})
	c.SetWedgeGuard(never)
	// Serialize 4 queries through one token so each waits behind the
	// previous one's simulated cost.
	g, err := c.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	grants := make(chan *Grant, 3)
	var grp Group
	for i := 0; i < 3; i++ {
		grp.Go(func() {
			gq, err := c.Admit()
			if err != nil {
				t.Error(err)
			}
			grants <- gq
		})
	}
	waitForQueue(t, c, 3)
	g.Release(time.Millisecond)
	for i := 0; i < 3; i++ {
		gq := <-grants
		waitForQueue(t, c, 2-i)
		gq.Release(time.Millisecond)
	}
	grp.Wait()

	s := c.Stats()
	if s.Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", s.Admitted)
	}
	if s.QueueWaitP50 <= 0 || s.QueueWaitP99 < s.QueueWaitP50 {
		t.Fatalf("percentiles p50=%v p99=%v", s.QueueWaitP50, s.QueueWaitP99)
	}
}

// TestStatsWaitsBounded: the wait history is a ring of the last
// waitSamples admissions, and the percentiles are those of exactly
// those waits.
func TestStatsWaitsBounded(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: time.Hour})
	c.SetWedgeGuard(never)
	g, err := c.Admit()
	if err != nil {
		t.Fatal(err)
	}
	all := []time.Duration{0}
	for i := 1; i < 3000; i++ {
		_, w, err := c.enqueue()
		if err != nil || w == nil {
			t.Fatalf("admission %d not queued: %v", i, err)
		}
		// The waiter queued at the current virtual time, so its wait is
		// the cost of the query it waited behind. Waits grow, so the
		// percentiles of the whole history differ from the ring's.
		cost := time.Duration(i+i*7919%100) * time.Microsecond
		g.Release(cost)
		g = <-w.grant
		all = append(all, cost)
	}
	g.Release(0)

	s := c.Stats()
	c.mu.Lock()
	held := len(c.waits)
	c.mu.Unlock()
	if s.Admitted != 3000 || held != waitSamples {
		t.Fatalf("admitted %d, ring holds %d samples; want 3000, %d", s.Admitted, held, waitSamples)
	}
	last := append([]time.Duration(nil), all[len(all)-waitSamples:]...)
	sort.Slice(last, func(i, j int) bool { return last[i] < last[j] })
	if p50, p99 := percentile(last, 50), percentile(last, 99); s.QueueWaitP50 != p50 || s.QueueWaitP99 != p99 {
		t.Fatalf("percentiles p50=%v p99=%v, want those of the last %d waits: %v, %v", s.QueueWaitP50, s.QueueWaitP99, waitSamples, p50, p99)
	}
}

// inUseNow reads the token count for tests.
func (c *Controller) inUseNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse
}

// waitForQueue polls until n waiters are queued (queueing happens on
// a test goroutine, so the main goroutine must observe it).
func waitForQueue(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		q := len(c.waiters)
		c.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (have %d)", n, q)
		}
		time.Sleep(time.Millisecond)
	}
}
