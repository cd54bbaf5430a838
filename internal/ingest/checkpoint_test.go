package ingest

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/faults"
)

func ckptSite() string { return faults.SiteIngestCheckpoint("q") }

func mkState(lsn int64, pairs ...int64) ckptState {
	st := ckptState{lsn: lsn, windows: map[int64]int64{}}
	for i := 0; i+1 < len(pairs); i += 2 {
		st.windows[pairs[i]] = pairs[i+1]
	}
	return st
}

func sameState(a, b ckptState) bool {
	if a.lsn != b.lsn || len(a.windows) != len(b.windows) {
		return false
	}
	for w, c := range a.windows {
		if b.windows[w] != c {
			return false
		}
	}
	return true
}

// TestCheckpointRoundTrip: write a sequence of states, reopen, and the
// last one wins; a second reopen is a fixed point.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	states := []ckptState{
		mkState(8, 0, 3),
		mkState(16, 0, 3, 1, 5),
		mkState(24, 0, 3, 1, 5, 2, 1),
	}
	for _, st := range states {
		if err := c.write(st, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sameState(c.st, states[2]) {
		t.Fatalf("in-memory state %+v, want %+v", c.st, states[2])
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(c2.st, states[2]) || c2.recs != 3 || c2.log.Recovered() != 0 {
		t.Fatalf("reopen: state=%+v recs=%d recovered=%d", c2.st, c2.recs, c2.log.Recovered())
	}
}

// TestCheckpointCrashTornTail kills the write at every torn length;
// reopen recovers the last durable state and truncates the tail.
func TestCheckpointCrashTornTail(t *testing.T) {
	full := len(mkState(16, 0, 3, 1, 5).encode(nil))
	for short := 0; short <= full; short += 3 {
		dir := t.TempDir()
		path := filepath.Join(dir, "q.ckpt")
		c, err := openCheckpoint(path, ckptSite(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(1)
		inj.Rule(ckptSite(), faults.Rule{Kind: faults.Crash, At: []int{2}, ShortWrite: short})
		first := mkState(8, 0, 3)
		if err := c.write(first, inj); err != nil {
			t.Fatalf("short=%d: first write: %v", short, err)
		}
		err = c.write(mkState(16, 0, 3, 1, 5), inj)
		if !faults.IsCrash(err) {
			t.Fatalf("short=%d: crash not injected: %v", short, err)
		}
		if !c.log.Dead() {
			t.Fatalf("short=%d: crashed handle not dead", short)
		}
		if err := c.write(mkState(24), nil); err == nil {
			t.Fatalf("short=%d: dead handle accepted a write", short)
		}
		_ = c.close()

		c2, err := openCheckpoint(path, ckptSite(), nil, nil)
		if err != nil {
			t.Fatalf("short=%d: reopen: %v", short, err)
		}
		want := first
		wantRecovered := short > 0
		if short == full {
			// A fully torn write is durable.
			want = mkState(16, 0, 3, 1, 5)
			wantRecovered = false
		}
		if !sameState(c2.st, want) {
			t.Fatalf("short=%d: recovered %+v, want %+v", short, c2.st, want)
		}
		if (c2.log.Recovered() > 0) != wantRecovered {
			t.Fatalf("short=%d: recovered %d torn bytes", short, c2.log.Recovered())
		}
		// The healed log keeps accepting writes.
		if err := c2.write(mkState(24, 0, 9), nil); err != nil {
			t.Fatalf("short=%d: write after recovery: %v", short, err)
		}
	}
}

// TestCheckpointRollback: transient and permanent faults leave file
// and state untouched, and a retry succeeds.
func TestCheckpointRollback(t *testing.T) {
	for _, kind := range []faults.Kind{faults.Transient, faults.Permanent} {
		path := filepath.Join(t.TempDir(), "q.ckpt")
		c, err := openCheckpoint(path, ckptSite(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(1)
		inj.Rule(ckptSite(), faults.Rule{Kind: kind, At: []int{2}})
		first := mkState(8, 0, 3)
		if err := c.write(first, inj); err != nil {
			t.Fatal(err)
		}
		foot := c.log.Footprint()
		if err := c.write(mkState(16, 0, 4), inj); err == nil {
			t.Fatalf("%v fault did not surface", kind)
		}
		if c.log.Dead() || c.log.Footprint() != foot || !sameState(c.st, first) {
			t.Fatalf("%v fault leaked state: dead=%v foot=%d", kind, c.log.Dead(), c.log.Footprint())
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != foot {
			t.Fatalf("%v fault left file at %d bytes, want %d", kind, fi.Size(), foot)
		}
		if err := c.write(mkState(16, 0, 4), inj); err != nil {
			t.Fatalf("retry after %v rollback: %v", kind, err)
		}
	}
}

// TestCheckpointBadLog: header corruption and LSN regression are hard
// errors, not recoverable tears.
func TestCheckpointBadLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.write(mkState(8, 0, 3), nil); err != nil {
		t.Fatal(err)
	}
	_ = c.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openCheckpoint(path, ckptSite(), nil, nil); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// A checksum-valid record whose LSN regresses.
	regress := append(append([]byte(nil), data...), mkState(4).encode(nil)...)
	if err := os.WriteFile(path, regress, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openCheckpoint(path, ckptSite(), nil, nil); err == nil {
		t.Fatal("regressing checkpoint accepted")
	}
}

// FuzzCheckpointReplay throws arbitrary bytes at the checkpoint replay
// path. Invariants: no panic, the valid prefix is in range, and
// replaying just the accepted prefix is a fixed point — same state,
// same record count, all bytes accepted (that is what reopening after
// torn-tail truncation does).
func FuzzCheckpointReplay(f *testing.F) {
	log := binaryHeader()
	log = mkState(8, 0, 3).encode(log)
	log = mkState(16, 0, 3, 1, 5, 7, 2).encode(log)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(log[:ckptHeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, st, recs, err := replayCheckpoints(data)
		if err != nil {
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		valid2, st2, recs2, err := replayCheckpoints(data[:valid])
		if err != nil {
			t.Fatalf("accepted prefix rejected on replay: %v", err)
		}
		if valid2 != valid || recs2 != recs || !sameState(st, st2) {
			t.Fatalf("replay not a fixed point: %d/%d recs %d/%d", valid, valid2, recs, recs2)
		}
		// Round-trip: the recovered state re-encodes to bytes that
		// decode back to itself.
		if recs > 0 {
			rec := st.encode(binaryHeader())
			_, st3, recs3, err := replayCheckpoints(rec)
			if err != nil || recs3 != 1 || !sameState(st, st3) {
				t.Fatalf("state round-trip failed: %v", err)
			}
		}
	})
}

// binaryHeader returns a fresh checkpoint-log header.
func binaryHeader() []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, ckptMagic)
	return append(hdr, ckptVersion)
}

// TestCheckpointEncodeDeterministic: encoding is a pure function of
// the state (windows sorted), so two equal states encode identically.
func TestCheckpointEncodeDeterministic(t *testing.T) {
	a := mkState(16, 3, 1, 1, 5, 2, 9)
	b := mkState(16, 2, 9, 3, 1, 1, 5)
	if !bytes.Equal(a.encode(nil), b.encode(nil)) {
		t.Fatal("equal states encoded differently")
	}
}
