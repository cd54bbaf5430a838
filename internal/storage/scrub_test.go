package storage

import (
	"bytes"
	"os"
	"strings"
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

// checkDue asks c whether a pass is due at now and fails unless the
// answer and the counters afterwards are the ones given.
func checkDue(t *testing.T, c *Cadence, now time.Duration, busy, due bool, want ScrubStats) {
	t.Helper()
	if got := c.Due(now, busy); got != due {
		t.Fatalf("Due(%v, busy=%v) = %v, want %v", now, busy, got, due)
	}
	if c.ScrubStats != want {
		t.Fatalf("after Due(%v, busy=%v): %+v, want %+v", now, busy, c.ScrubStats, want)
	}
}

// TestScrubberCadence: passes fire only when the virtual-time interval
// has elapsed; checks before the deadline are free.
func TestScrubberCadence(t *testing.T) {
	ms := time.Millisecond
	c := NewCadence(100*ms, 0)
	// Not due yet: checks do nothing.
	checkDue(t, &c, 50*ms, false, false, ScrubStats{})
	checkDue(t, &c, 50*ms, false, false, ScrubStats{})
	// Crossing the interval makes exactly one pass due per cadence.
	checkDue(t, &c, 110*ms, false, true, ScrubStats{Passes: 1})
	checkDue(t, &c, 110*ms, false, false, ScrubStats{Passes: 1}) // inside the next interval
	checkDue(t, &c, 220*ms, false, true, ScrubStats{Passes: 2})
	// A non-positive interval is never due.
	off := NewCadence(0, 0)
	checkDue(t, &off, time.Hour, false, false, ScrubStats{})
}

// TestScrubberDegradeBeforeShed: a due pass under saturation defers
// with a doubled (bounded) cadence instead of running — and the
// deferred pass still runs once the system goes quiet, resetting the
// cadence to its base interval.
func TestScrubberDegradeBeforeShed(t *testing.T) {
	ms := time.Millisecond
	c := NewCadence(100*ms, 0)
	checkDue(t, &c, 150*ms, true, false, ScrubStats{Degraded: 1})
	// The degraded cadence doubled to 200ms: +150ms is not yet due.
	checkDue(t, &c, 300*ms, true, false, ScrubStats{Degraded: 1})
	// Quiet again: the overdue pass runs and the cadence resets.
	checkDue(t, &c, 400*ms, false, true, ScrubStats{Passes: 1, Degraded: 1})
	checkDue(t, &c, 499*ms, false, false, ScrubStats{Passes: 1, Degraded: 1})
	checkDue(t, &c, 500*ms, false, true, ScrubStats{Passes: 2, Degraded: 1})
}

// TestScrubberDegradeCapped: repeated saturation cannot stretch the
// cadence past 8× the base interval.
func TestScrubberDegradeCapped(t *testing.T) {
	ms := time.Millisecond
	c := NewCadence(10*ms, 0)
	now := time.Duration(0)
	for i := 1; i <= 6; i++ {
		now += 200 * ms // always overdue, whatever the cadence
		checkDue(t, &c, now, true, false, ScrubStats{Degraded: i})
	}
	// After the cap (8× = 80ms) an 80ms advance is still enough to be
	// due again — if the cadence kept doubling it would not be.
	checkDue(t, &c, now+79*ms, true, false, ScrubStats{Degraded: 6})
	checkDue(t, &c, now+80*ms, true, false, ScrubStats{Degraded: 7})
}
