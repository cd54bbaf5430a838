package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/faults"
	"eva/internal/vision"
)

// appendWMRecord appends one watermark record.
func appendWMRecord(buf []byte, wm int64) []byte {
	return sealRecord(buf, recState, 0, wmState(wm))
}

func liveDS() vision.Dataset {
	return vision.Dataset{Name: "live", Frames: 100, Width: 320, Height: 240, Density: 2, Seed: 0x117E}
}

// TestLiveVideoWatermark covers the happy path: appends advance the
// durable watermark, scans see exactly the watermarked prefix, and a
// clean reopen recovers the same watermark.
func TestLiveVideoWatermark(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, err := e.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	if !v.live || v.NumFrames() != 0 {
		t.Fatalf("fresh live table: live=%v frames=%d", v.live, v.NumFrames())
	}
	if _, err := v.AppendFrames(10, nil); err != nil {
		t.Fatal(err)
	}
	if wm, err := v.AppendFrames(5, nil); err != nil || wm != 15 {
		t.Fatalf("append: wm=%d err=%v", wm, err)
	}
	if v.NumFrames() != 15 {
		t.Fatalf("NumFrames = %d, want 15", v.NumFrames())
	}
	b, err := v.Scan(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 15 {
		t.Fatalf("scan saw %d frames past the watermark", b.Len())
	}
	// Zero-frame append is a durable no-op.
	if wm, err := v.AppendFrames(0, nil); err != nil || wm != 15 {
		t.Fatalf("empty append: wm=%d err=%v", wm, err)
	}
	// Past-capacity append refuses without advancing.
	if _, err := v.AppendFrames(1000, nil); err == nil {
		t.Fatal("append past capacity succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := Open(dir)
	v2, err := e2.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Watermark() != 15 || v2.wal.recovered != 0 {
		t.Fatalf("reopen: wm=%d recovered=%d, want 15/0", v2.Watermark(), v2.wal.recovered)
	}
	// The log keeps appending across the reopen.
	if wm, err := v2.AppendFrames(85, nil); err != nil || wm != 100 {
		t.Fatalf("append to capacity: wm=%d err=%v", wm, err)
	}
}

// TestLiveVideoCrashTornTail kills the watermark write at every torn
// length: the handle dies, reopen truncates the tail back to the last
// durable record, and re-sending from the recovered watermark converges
// on the uninterrupted final state.
func TestLiveVideoCrashTornTail(t *testing.T) {
	for short := 0; short <= wmRecLen; short++ {
		dir := t.TempDir()
		e, _ := Open(dir)
		inj := faults.New(1)
		inj.Rule(faults.SiteIngestAppend("traffic"),
			faults.Rule{Kind: faults.Crash, At: []int{2}, ShortWrite: short})
		v, err := e.OpenLiveVideo("traffic", liveDS())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.AppendFrames(7, inj); err != nil {
			t.Fatalf("short=%d: first append: %v", short, err)
		}
		if _, err := v.AppendFrames(3, inj); !faults.IsCrash(err) {
			t.Fatalf("short=%d: crash not injected: %v", short, err)
		}
		if !v.wal.dead {
			t.Fatalf("short=%d: crashed handle not dead", short)
		}
		// Dead handle refuses further appends.
		if _, err := v.AppendFrames(1, nil); err == nil {
			t.Fatalf("short=%d: dead handle accepted an append", short)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		e2, _ := Open(dir)
		v2, err := e2.OpenLiveVideo("traffic", liveDS())
		if err != nil {
			t.Fatalf("short=%d: reopen: %v", short, err)
		}
		// A full torn write (short == wmRecLen) made the second append
		// durable; anything shorter loses it back to watermark 7.
		wantWM, wantRec := int64(7), short
		if short == wmRecLen {
			wantWM, wantRec = 10, 0
		}
		if v2.Watermark() != wantWM {
			t.Fatalf("short=%d: recovered wm=%d, want %d", short, v2.Watermark(), wantWM)
		}
		if int(v2.wal.recovered) != wantRec {
			t.Fatalf("short=%d: recovered %d torn bytes, want %d", short, v2.wal.recovered, wantRec)
		}
		// Producer re-sends from the recovered watermark: same final
		// state as an uninterrupted run.
		if wm, err := v2.AppendFrames(int(10-wantWM), nil); err != nil || wm != 10 {
			t.Fatalf("short=%d: re-send: wm=%d err=%v", short, wm, err)
		}
		e3, _ := Open(dir)
		v3, err := e3.OpenLiveVideo("traffic", liveDS())
		if err != nil || v3.Watermark() != 10 {
			t.Fatalf("short=%d: final reopen wm=%d err=%v", short, v3.Watermark(), err)
		}
	}
}

// TestLiveVideoAppendRollback checks the non-crash failure path: a
// transient or permanent write fault rolls the log back so neither the
// file nor the watermark moves, and a retry succeeds from clean state.
func TestLiveVideoAppendRollback(t *testing.T) {
	for _, kind := range []faults.Kind{faults.Transient, faults.Permanent} {
		dir := t.TempDir()
		e, _ := Open(dir)
		inj := faults.New(1)
		inj.Rule(faults.SiteIngestAppend("traffic"), faults.Rule{Kind: kind, At: []int{2}})
		v, err := e.OpenLiveVideo("traffic", liveDS())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.AppendFrames(4, inj); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(wmPath(v.dir))
		before := fi.Size()
		if _, err := v.AppendFrames(6, inj); err == nil {
			t.Fatalf("%v fault did not surface", kind)
		}
		if v.wal.dead {
			t.Fatalf("%v fault killed the handle", kind)
		}
		if v.Watermark() != 4 {
			t.Fatalf("%v fault moved the watermark to %d", kind, v.Watermark())
		}
		fi, _ = os.Stat(wmPath(v.dir))
		if fi.Size() != before {
			t.Fatalf("%v fault left the log at %d bytes, want %d", kind, fi.Size(), before)
		}
		if wm, err := v.AppendFrames(6, inj); err != nil || wm != 10 {
			t.Fatalf("retry: wm=%d err=%v", wm, err)
		}
	}
}

// TestLiveVideoBadLog exercises what an open makes of a damaged log: a
// corrupted header and a regressing or past-capacity watermark are
// writer bugs, not recoverable tears, while a byte flipped inside any
// record but the last is salvaged around — the open recovers the last
// acknowledged watermark, not the one before the rot.
func TestLiveVideoBadLog(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, err := e.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 // records, watermarks 1, 3, 5
	for i := 0; i < n; i++ {
		if _, err := v.AppendFrames(1+min(i, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := wmPath(v.dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(log []byte) (*Video, error) {
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		return mustOpen(t, dir).OpenLiveVideo("traffic", liveDS())
	}

	// Header corruption.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := open(bad); err == nil {
		t.Fatal("corrupt header accepted")
	}
	// A checksum-valid record whose watermark regresses.
	if _, err := open(appendWMRecord(append([]byte(nil), data...), 2)); err == nil {
		t.Fatal("regressing watermark accepted")
	}
	// A watermark past the dataset capacity.
	if _, err := open(appendWMRecord(append([]byte(nil), data...), 5000)); err == nil {
		t.Fatal("past-capacity watermark accepted")
	}
	// Mid-log rot: one byte flipped inside record k of n, k < n.
	for k := 1; k < n; k++ {
		rot := append([]byte(nil), data...)
		rot[preambleLen+(k-1)*wmRecLen+recHeaderLen+1] ^= 0x40
		v2, err := open(rot)
		if err != nil {
			t.Fatalf("rot in record %d of %d: %v", k, n, err)
		}
		if v2.Watermark() != 5 || v2.wal.Recovered() != 0 {
			t.Fatalf("rot in record %d of %d: wm=%d recovered=%d, want 5/0", k, n, v2.Watermark(), v2.wal.Recovered())
		}
		_ = v2.closeLive()
	}
}

// TestWatermarkLogUpgradesV1: a version-1 watermark log (the compat
// golden's, a torn tail cut into it on top) opens to its last valid
// watermark and is folded into a version-2 image, which reopens to the
// same watermark. If that fold cannot commit, the open fails and the v1
// file is left as it was.
func TestWatermarkLogUpgradesV1(t *testing.T) {
	v1, err := os.ReadFile("testdata/compat/root/videos/cam/ingest.wal")
	if err != nil {
		t.Fatal(err)
	}
	v1 = append(v1, 1, 2, 3) // a torn v1 record
	dir := t.TempDir()
	path := filepath.Join(dir, "videos", "traffic", "ingest.wal")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, fail := range []bool{true, false} {
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		if fail {
			renameFile = func(string, string) error { return errors.New("rename refused") }
		}
		v, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS())
		renameFile = os.Rename
		got, _ := os.ReadFile(path)
		if fail {
			if err == nil || !bytes.Equal(got, v1) {
				t.Fatalf("failed upgrade: err=%v, file changed=%v", err, !bytes.Equal(got, v1))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := appendWMRecord(beginFile(nil, wmLog), 75); v.Watermark() != 75 || !bytes.Equal(got, want) {
			t.Fatalf("upgrade: wm=%d file=%x, want 75 and %x", v.Watermark(), got, want)
		}
		_ = v.closeLive()
		if v2, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS()); err != nil || v2.Watermark() != 75 {
			t.Fatalf("reopen after upgrade: err=%v", err)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzWatermarkReplay throws arbitrary bytes at the watermark log's
// open, version-1 upgrade included. Invariants: no panic; a log that
// opens reopens to the same watermark with no torn tail left to drop
// (recovery is a fixed point); and the opened log extended by a
// checksum-valid record that moves the watermark backwards fails the
// open, never recovers.
func FuzzWatermarkReplay(f *testing.F) {
	log := appendWMRecord(appendWMRecord(beginFile(nil, wmLog), 3), 10)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(appendWMRecord(log, 4))
	f.Add(beginFile(nil, wmLog))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "videos", "traffic", "ingest.wal")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS())
		if err != nil {
			return
		}
		wm := v.Watermark()
		_ = v.closeLive()
		v2, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS())
		if err != nil || v2.Watermark() != wm || v2.wal.Recovered() != 0 {
			t.Fatalf("reopen not a fixed point: wm %d, err %v", wm, err)
		}
		_ = v2.closeLive()
		opened, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, appendWMRecord(opened, wm-1), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS()); err == nil {
			t.Fatalf("watermark regressing %d -> %d was accepted", wm, wm-1)
		}
	})
}
