package storage

import (
	"encoding/binary"
	"os"
	"testing"

	"eva/internal/faults"
	"eva/internal/vision"
	"eva/internal/xxhash"
)

// appendWMRecord encodes one checksummed watermark record.
func appendWMRecord(buf []byte, wm uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, wm)
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf[len(buf)-8:], 0))
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
	if !v.Live() || v.NumFrames() != 0 {
		t.Fatalf("fresh live table: live=%v frames=%d", v.Live(), v.NumFrames())
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

// TestLiveVideoBadLog exercises hard open failures: a corrupted header
// and a regressing watermark are writer bugs, not recoverable tears.
func TestLiveVideoBadLog(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, err := e.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AppendFrames(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := wmPath(v.dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Header corruption.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS()); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// A checksum-valid record whose watermark regresses.
	rec := make([]byte, 0, wmRecLen)
	rec = appendWMRecord(rec, 2) // below the durable 5
	if err := os.WriteFile(path, append(append([]byte(nil), data...), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS()); err == nil {
		t.Fatal("regressing watermark accepted")
	}

	// A watermark past the dataset capacity.
	rec = appendWMRecord(rec[:0], 5000)
	if err := os.WriteFile(path, append(append([]byte(nil), data...), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mustOpen(t, dir).OpenLiveVideo("traffic", liveDS()); err == nil {
		t.Fatal("past-capacity watermark accepted")
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

// FuzzWatermarkReplay throws arbitrary bytes at the watermark-log
// replay. Invariants: no panic; the valid prefix is in range; replaying
// just the accepted prefix is a fixed point (what reopening after
// torn-tail truncation does); and an accepted log extended by a
// checksum-valid record that moves the watermark backwards is an error,
// never a recovery.
func FuzzWatermarkReplay(f *testing.F) {
	log := appendWMRecord(appendWMRecord(wmHeader(), 3), 10)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(appendWMRecord(log, 4))
	f.Add(wmHeader())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, wm, err := replayWatermarks(data)
		if err != nil {
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		valid2, wm2, err := replayWatermarks(data[:valid])
		if err != nil || valid2 != valid || wm2 != wm {
			t.Fatalf("replay not a fixed point: valid %d/%d wm %d/%d err %v", valid, valid2, wm, wm2, err)
		}
		back := appendWMRecord(append([]byte(nil), data[:valid]...), uint64(wm-1))
		if _, _, err := replayWatermarks(back); err == nil {
			t.Fatalf("watermark regressing %d -> %d was accepted", wm, wm-1)
		}
	})
}
