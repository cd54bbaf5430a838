package storage

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eva/internal/faults"
)

// rotPayload flips a byte of string payload ("car" → "cas") in the
// first rows record of the log at path: the datum still decodes, the
// record's checksum no longer matches.
func rotPayload(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := bytes.Index(data, []byte("car"))
	if pos < 0 {
		t.Fatal("payload byte not found")
	}
	data[pos+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDetectsTrustedPrefixBitrot: bitrot inside a cleanly closed
// log — a prefix an earlier open verified — that keeps the record
// structurally decodable is found by the next open, which verifies
// every record: the record is quarantined and its rows are never
// served. Rot that lands after the open is what the scrubber is for:
// Verify's full re-hash catches it, quarantines the record and drops
// its rows from serving, and the next open finds the same hole.
func TestVerifyDetectsTrustedPrefixBitrot(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	crashAppend(t, v, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rotPayload(t, v.path)
	e1 := openLedger(t, dir)
	v1, err := e1.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Rows() != 3 {
		t.Errorf("reopen of a rotten log serves %d rows, want 3 (not the rotten record's)", v1.Rows())
	}
	atOpen := v1.Quarantine()
	if atOpen == nil || len(atOpen.Ranges) != 1 {
		t.Fatalf("reopen quarantine = %+v, want one range", atOpen)
	}
	if res, err := v1.Verify(); err != nil || res.FoundCorruption || res.RecordsVerified != 3 {
		t.Errorf("verify after the open found the hole = %+v, %v; want it known and 3 records verified", res, err)
	}
	checkLedger(t, e1)

	// Rot after the open: the view serves the rows it verified.
	dir2 := t.TempDir()
	e2 := openLedger(t, dir2)
	v2, _ := e2.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v2, 0)
	crashAppend(t, v2, 1)
	rotPayload(t, v2.path)
	if v2.Rows() != 6 {
		t.Fatalf("pre-scrub rows = %d, want 6 (including the rotten one)", v2.Rows())
	}
	res, err := v2.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if res.Clean || !res.FoundCorruption {
		t.Fatalf("verify result = %+v, want corruption found", res)
	}
	if res.RowsDropped != 3 {
		t.Errorf("verify dropped %d rows, want 3 (the corrupt record's)", res.RowsDropped)
	}
	if res.Quar == nil || len(res.Quar.Ranges) != 1 || res.Quar.Ranges[0] != atOpen.Ranges[0] {
		t.Fatalf("verify quarantine = %+v, want the open's %+v", res.Quar, atOpen.Ranges)
	}
	// The rotten row is no longer served.
	if v2.Rows() != 3 {
		t.Errorf("post-scrub rows = %d, want 3", v2.Rows())
	}
	// A second pass is idempotent: same quarantine, no new detection.
	res2, err := v2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res2.FoundCorruption {
		t.Error("second verify re-reported the known hole as fresh corruption")
	}
	checkLedger(t, e2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := Open(dir2)
	v3, err := e3.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Rows() != 3 {
		t.Errorf("reopen after scrub served %d rows, want 3", v3.Rows())
	}
	if q := v3.Quarantine(); q == nil || len(q.Ranges) != 1 || q.Ranges[0] != res.Quar.Ranges[0] {
		t.Errorf("reopen quarantine = %+v, want %+v", q, res.Quar.Ranges)
	}
}

// TestVerifyCleanPass: verifying an intact log reports
// clean, re-hashes every record, and leaves state untouched.
func TestVerifyCleanPass(t *testing.T) {
	dir := t.TempDir()
	e := openLedger(t, dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	crashAppend(t, v, 1)
	golden := snapshotView(v)
	res, err := v.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.FoundCorruption || res.Quar != nil {
		t.Fatalf("clean verify = %+v", res)
	}
	if res.RecordsVerified != 4 {
		t.Errorf("verified %d records, want 4", res.RecordsVerified)
	}
	if got := snapshotView(v); got.rows != golden.rows || !bytes.Equal(got.data, golden.data) {
		t.Error("clean verify mutated view state")
	}
	checkLedger(t, e)
}

// TestVerifyHeaderRot: the header rotting under a live view is a total
// loss; Verify restarts the log in place and the view stays usable.
func TestVerifyHeaderRot(t *testing.T) {
	dir := t.TempDir()
	e := openLedger(t, dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	data, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	data[1] ^= 0xff
	if err := os.WriteFile(v.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := v.Verify()
	if err != nil {
		t.Fatalf("verify after header rot: %v", err)
	}
	if !res.FoundCorruption || res.RowsDropped != 3 {
		t.Fatalf("header rot verify = %+v, want total loss of 3 rows", res)
	}
	if v.Rows() != 0 {
		t.Errorf("post-rot rows = %d, want 0", v.Rows())
	}
	checkLedger(t, e)
	// The regenerated log accepts appends and survives reopen.
	crashAppend(t, v, 1)
	checkLedger(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _ := Open(dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Rows() != 3 {
		t.Errorf("reopen after in-place restart: rows=%d, want 3", v2.Rows())
	}
}

// TestVerifyScrubFaultSite: the view:scrub site injects into Verify —
// transient faults surface as errors without touching state, crashes
// kill the view like any other simulated kill.
func TestVerifyScrubFaultSite(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	inj := faults.New(11)
	inj.Rule(faults.SiteViewScrub("det"), faults.Rule{Kind: faults.Transient, At: []int{1}})
	e.SetInjector(inj)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v, 0)
	if _, err := v.Verify(); err == nil || !faults.IsTransient(err) {
		t.Fatalf("verify error = %v, want injected transient", err)
	}
	if v.Rows() != 3 {
		t.Errorf("faulted verify changed state: rows=%d", v.Rows())
	}
	// The retry (next cadence) draws call 2: no rule, passes.
	if res, err := v.Verify(); err != nil || !res.Clean {
		t.Fatalf("retry verify = %+v, %v", res, err)
	}

	// Crash at the scrub site kills the view.
	dir2 := t.TempDir()
	e2, _ := Open(dir2)
	inj2 := faults.New(11)
	inj2.Rule(faults.SiteViewScrub("det"), faults.Rule{Kind: faults.Crash, At: []int{1}})
	e2.SetInjector(inj2)
	v2, _ := e2.CreateView("det", viewSchema(), []string{"id"})
	crashAppend(t, v2, 0)
	if _, err := v2.Verify(); err == nil || !faults.IsCrash(err) {
		t.Fatalf("verify error = %v, want injected crash", err)
	}
	if _, err := v2.Append(mkRows(9), nil); err == nil {
		t.Error("crashed view accepted an append")
	}
}

// TestVerifyViewsAggregates: the engine-level pass verifies every view
// in name order and carries per-view errors instead of aborting.
func TestVerifyViewsAggregates(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	inj := faults.New(5)
	inj.Rule(faults.SiteViewScrub("bad"), faults.Rule{Kind: faults.Permanent, At: []int{1}})
	e.SetInjector(inj)
	va, _ := e.CreateView("alpha", viewSchema(), []string{"id"})
	vb, _ := e.CreateView("bad", viewSchema(), []string{"id"})
	crashAppend(t, va, 0)
	crashAppend(t, vb, 0)
	results := e.VerifyViews()
	if len(results) != 2 {
		t.Fatalf("verified %d views, want 2", len(results))
	}
	if results[0].Name != "alpha" || results[1].Name != "bad" {
		t.Fatalf("order = %s, %s", results[0].Name, results[1].Name)
	}
	if !results[0].Clean || results[0].Err != "" {
		t.Errorf("alpha = %+v, want clean", results[0])
	}
	if results[1].Err == "" || !strings.Contains(results[1].Err, "injected") {
		t.Errorf("bad.Err = %q, want injected fault", results[1].Err)
	}
}

// virtualClock is a test stand-in for the engine's simulated clock.
type virtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *virtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// waitStats polls the scrubber until cond holds or the deadline hits —
// the scrubber goroutine consumes nudges asynchronously.
func waitStats(t *testing.T, s *Scrubber, cond func(ScrubStats) bool) ScrubStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber stats stuck at %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScrubberCadence: passes fire only when the virtual-time interval
// has elapsed; nudges before the deadline are free.
func TestScrubberCadence(t *testing.T) {
	clk := &virtualClock{}
	var mu sync.Mutex
	passes := 0
	s := NewScrubber(ScrubConfig{
		Interval: 100 * time.Millisecond,
		Now:      clk.Now,
		Pass: func() {
			mu.Lock()
			passes++
			mu.Unlock()
		},
	})
	defer s.Close()

	// Not due yet: nudges do nothing.
	clk.Advance(50 * time.Millisecond)
	s.Nudge()
	s.Nudge()
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Passes != 0 {
		t.Fatalf("premature pass: %+v", st)
	}
	// Crossing the interval triggers exactly one pass per cadence.
	clk.Advance(60 * time.Millisecond)
	s.Nudge()
	waitStats(t, s, func(st ScrubStats) bool { return st.Passes == 1 })
	s.Nudge() // still inside the next interval
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Passes != 1 {
		t.Fatalf("extra pass inside interval: %+v", st)
	}
	clk.Advance(110 * time.Millisecond)
	s.Nudge()
	waitStats(t, s, func(st ScrubStats) bool { return st.Passes == 2 })
	mu.Lock()
	defer mu.Unlock()
	if passes != 2 {
		t.Fatalf("pass closure ran %d times, want 2", passes)
	}
}

// TestScrubberDegradeBeforeShed: a due pass under saturation defers
// with a doubled (bounded) cadence instead of running — and the
// deferred pass still runs once the system goes quiet.
func TestScrubberDegradeBeforeShed(t *testing.T) {
	clk := &virtualClock{}
	var mu sync.Mutex
	busy := true
	s := NewScrubber(ScrubConfig{
		Interval: 100 * time.Millisecond,
		Now:      clk.Now,
		Busy: func() bool {
			mu.Lock()
			defer mu.Unlock()
			return busy
		},
		Pass: func() {},
	})
	defer s.Close()

	clk.Advance(150 * time.Millisecond)
	s.Nudge()
	st := waitStats(t, s, func(st ScrubStats) bool { return st.Degraded == 1 })
	if st.Passes != 0 {
		t.Fatalf("busy system still scrubbed: %+v", st)
	}
	// The degraded cadence doubled to 200ms: +150ms is not yet due.
	clk.Advance(150 * time.Millisecond)
	s.Nudge()
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Degraded != 1 || st.Passes != 0 {
		t.Fatalf("degraded cadence not doubled: %+v", st)
	}
	// Quiet again: the overdue pass runs and the cadence resets.
	mu.Lock()
	busy = false
	mu.Unlock()
	clk.Advance(100 * time.Millisecond)
	s.Nudge()
	waitStats(t, s, func(st ScrubStats) bool { return st.Passes == 1 })
}

// TestScrubberDegradeCapped: repeated saturation cannot stretch the
// cadence past 8× the base interval.
func TestScrubberDegradeCapped(t *testing.T) {
	clk := &virtualClock{}
	s := NewScrubber(ScrubConfig{
		Interval: 10 * time.Millisecond,
		Now:      clk.Now,
		Busy:     func() bool { return true },
		Pass:     func() {},
	})
	defer s.Close()
	for i := 1; i <= 6; i++ {
		clk.Advance(200 * time.Millisecond) // always overdue, whatever the cadence
		s.Nudge()
		waitStats(t, s, func(st ScrubStats) bool { return st.Degraded == i })
	}
	// After the cap (8× = 80ms) an 80ms advance is still enough to be
	// due again — if the cadence kept doubling it would not be.
	clk.Advance(80 * time.Millisecond)
	s.Nudge()
	waitStats(t, s, func(st ScrubStats) bool { return st.Degraded == 7 })
}

// TestScrubberCloseJoins: Close waits for the scrubber goroutine; no
// leak survives.
func TestScrubberCloseJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		clk := &virtualClock{}
		s := NewScrubber(ScrubConfig{
			Interval: time.Millisecond,
			Now:      clk.Now,
			Pass:     func() {},
		})
		clk.Advance(time.Hour)
		s.Nudge()
		s.Close()
	}
	// Nudging a closed scrubber must not panic or block.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d > %d", n, before)
	}
}
