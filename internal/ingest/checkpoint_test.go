package ingest

import (
	"bytes"
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

// bigState is a state of n windows: a record past a megabyte at 70 000.
func bigState(lsn int64, n int) ckptState {
	st := ckptState{lsn: lsn, windows: make(map[int64]int64, n)}
	for w := 0; w < n; w++ {
		st.windows[int64(w)] = int64(w%7 + 1)
	}
	return st
}

// stateRecord returns the bytes one write of st appends to a checkpoint
// log, and the bytes of the log's header, as a fresh log lays them out.
func stateRecord(t testing.TB, st ckptState) (rec, header []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.ckpt")
	c, err := openCheckpoint(path, ckptSite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := fileSize(t, path)
	if err := c.write(st, nil); err != nil {
		t.Fatal(err)
	}
	_ = c.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data[hdr:], data[:hdr]
}

// fileSize is the size of the file at path.
func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
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
// last one wins — whatever its size: an acknowledged state of 70 000
// windows (a 1.1 MB record) must not read back as a torn tail.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		states []ckptState
	}{
		{"small", []ckptState{
			mkState(8, 0, 3),
			mkState(16, 0, 3, 1, 5),
			mkState(24, 0, 3, 1, 5, 2, 1),
		}},
		{"big", []ckptState{mkState(8, 0, 3), bigState(32, 70000)}},
	} {
		path := filepath.Join(t.TempDir(), "q.ckpt")
		c, err := openCheckpoint(path, ckptSite(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range tc.states {
			if err := c.write(st, nil); err != nil {
				t.Fatal(err)
			}
		}
		last := tc.states[len(tc.states)-1]
		if !sameState(c.st, last) {
			t.Fatalf("%s: in-memory state lsn=%d windows=%d, want %d/%d", tc.name, c.st.lsn, len(c.st.windows), last.lsn, len(last.windows))
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}

		c2, err := openCheckpoint(path, ckptSite(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameState(c2.st, last) || c2.recs != len(tc.states) || c2.log.Recovered() != 0 {
			t.Fatalf("%s: reopen: lsn=%d windows=%d recs=%d recovered=%d", tc.name, c2.st.lsn, len(c2.st.windows), c2.recs, c2.log.Recovered())
		}
	}
}

// TestCheckpointCrashTornTail kills the write at every torn length;
// reopen recovers the last durable state and truncates the tail.
func TestCheckpointCrashTornTail(t *testing.T) {
	rec, _ := stateRecord(t, mkState(16, 0, 3, 1, 5))
	full := len(rec)
	for short := 0; short <= full; short += 3 {
		dir := t.TempDir()
		path := filepath.Join(dir, "q.ckpt")
		c, err := openCheckpoint(path, ckptSite(), nil)
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
		if err := c.write(mkState(24), nil); err == nil {
			t.Fatalf("short=%d: dead handle accepted a write", short)
		}
		_ = c.close()

		c2, err := openCheckpoint(path, ckptSite(), nil)
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
		c, err := openCheckpoint(path, ckptSite(), nil)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(1)
		inj.Rule(ckptSite(), faults.Rule{Kind: kind, At: []int{2}})
		first := mkState(8, 0, 3)
		if err := c.write(first, inj); err != nil {
			t.Fatal(err)
		}
		foot := fileSize(t, path)
		if err := c.write(mkState(16, 0, 4), inj); err == nil {
			t.Fatalf("%v fault did not surface", kind)
		}
		if !sameState(c.st, first) {
			t.Fatalf("%v fault leaked state: %+v", kind, c.st)
		}
		if size := fileSize(t, path); size != foot {
			t.Fatalf("%v fault left file at %d bytes, want %d", kind, size, foot)
		}
		// The handle survived the rollback: the retry goes through it.
		if err := c.write(mkState(16, 0, 4), inj); err != nil {
			t.Fatalf("retry after %v rollback: %v", kind, err)
		}
	}
}

// TestCheckpointBadLog: header corruption and LSN regression are hard
// errors, not recoverable tears; a byte flipped inside any record but
// the last is salvaged around, and the open recovers the last
// acknowledged state, not the one before the rot.
func TestCheckpointBadLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ckpt")
	c, err := openCheckpoint(path, ckptSite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	states := []ckptState{mkState(8, 0, 3), mkState(16, 0, 3, 1, 2), mkState(24, 0, 3, 1, 2, 2, 9)}
	ends := []int64{fileSize(t, path)} // record k spans ends[k-1]..ends[k]
	for _, st := range states {
		if err := c.write(st, nil); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fileSize(t, path))
	}
	_ = c.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(log []byte) (*checkpointLog, error) {
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		return openCheckpoint(path, ckptSite(), nil)
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := open(bad); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// A checksum-valid record whose LSN regresses.
	rec, _ := stateRecord(t, mkState(4))
	if _, err := open(append(append([]byte(nil), data...), rec...)); err == nil {
		t.Fatal("regressing checkpoint accepted")
	}

	// Mid-log rot: one byte flipped inside record k of n, k < n.
	for k := 1; k < len(states); k++ {
		rot := append([]byte(nil), data...)
		rot[(ends[k-1]+ends[k])/2] ^= 0x40
		c2, err := open(rot)
		if err != nil {
			t.Fatalf("rot in record %d of %d: %v", k, len(states), err)
		}
		if !sameState(c2.st, states[len(states)-1]) || c2.log.Recovered() != 0 {
			t.Fatalf("rot in record %d of %d: recovered lsn %d (%d torn bytes), want %d", k, len(states), c2.st.lsn, c2.log.Recovered(), states[len(states)-1].lsn)
		}
		_ = c2.close()
	}
}

// FuzzCheckpointReplay throws arbitrary bytes at the checkpoint log's
// open, version-1 upgrade included. Invariants: no panic, and a log that
// opens is a fixed point — reopening it recovers the same state and
// record count with no torn tail left to drop — whose state re-encodes
// to a payload that decodes back to itself.
func FuzzCheckpointReplay(f *testing.F) {
	r1, header := stateRecord(f, mkState(8, 0, 3))
	r2, _ := stateRecord(f, mkState(16, 0, 3, 1, 5, 7, 2))
	log := append(append(append([]byte(nil), header...), r1...), r2...)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(header)
	f.Add([]byte{})
	if v1, err := os.ReadFile(compatGolden + "/root/checkpoints/cam-q.ckpt"); err == nil {
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "q.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := openCheckpoint(path, ckptSite(), nil)
		if err != nil {
			return
		}
		st, recs := c.st, c.recs
		_ = c.close()
		c2, err := openCheckpoint(path, ckptSite(), nil)
		if err != nil {
			t.Fatalf("opened log rejected on reopen: %v", err)
		}
		if c2.recs != recs || c2.log.Recovered() != 0 || !sameState(st, c2.st) {
			t.Fatalf("reopen not a fixed point: recs %d/%d, %d torn bytes", recs, c2.recs, c2.log.Recovered())
		}
		_ = c2.close()
		if st2, err := decodeCkptPayload(st.encode()); err != nil || !sameState(st, st2) {
			t.Fatalf("state round-trip failed: %v", err)
		}
	})
}

// TestCheckpointEncodeDeterministic: encoding is a pure function of
// the state (windows sorted), so two equal states encode identically.
func TestCheckpointEncodeDeterministic(t *testing.T) {
	a := mkState(16, 3, 1, 1, 5, 2, 9)
	b := mkState(16, 2, 9, 3, 1, 1, 5)
	if !bytes.Equal(a.encode(), b.encode()) {
		t.Fatal("equal states encoded differently")
	}
}
