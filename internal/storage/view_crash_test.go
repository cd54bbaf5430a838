package storage

import (
	"bytes"
	"os"
	"testing"

	"eva/internal/faults"
	"eva/internal/types"
)

// crashAppends is the scripted append sequence the kill-point harness
// replays. Append i stores two rows under key 3i, one row under key
// 3i+1, and marks key 3i+2 processed-with-no-rows — so every append
// exercises both record kinds.
const crashAppends = 4

func crashAppend(t *testing.T, v *View, i int) {
	t.Helper()
	rows := types.NewBatch(viewSchema())
	base := int64(3 * i)
	rows.MustAppendRow(types.NewInt(base), types.NewString("car"), types.NewString("a"))
	rows.MustAppendRow(types.NewInt(base), types.NewString("bus"), types.NewString("b"))
	rows.MustAppendRow(types.NewInt(base+1), types.NewString("car"), types.NewString("c"))
	if _, err := v.Append(rows, [][]types.Datum{{types.NewInt(base + 2)}}); err != nil {
		t.Fatalf("append %d: %v", i, err)
	}
}

// mkRows builds a one-row batch keyed by id.
func mkRows(id int64) *types.Batch {
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(id), types.NewString("car"), types.NewString("x"))
	return rows
}

type viewState struct {
	rows      int
	processed int
	data      []byte // canonical row encoding, in storage order
}

func snapshotView(v *View) viewState {
	b := v.Scan()
	var buf []byte
	for r := 0; r < b.Len(); r++ {
		for _, d := range b.Row(r) {
			buf = d.AppendBinary(buf)
		}
	}
	return viewState{rows: v.Rows(), processed: v.ProcessedCount(), data: buf}
}

// TestViewCrashRecoveryKillPoints proves the crash-safety contract at
// every kill point: for each append in the script and a spread of torn
// lengths, inject a crash that cuts the log record short, then (1) the
// reopened view loads without error, (2) its contents are a consistent
// prefix of the uninterrupted golden run, and (3) re-running the full
// append script converges to exactly the golden state (idempotent
// re-STORE).
func TestViewCrashRecoveryKillPoints(t *testing.T) {
	// Golden uninterrupted run, plus the per-prefix states the
	// recovered view must match.
	goldenDir := t.TempDir()
	ge, _ := Open(goldenDir)
	gv, err := ge.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []viewState{snapshotView(gv)} // state after 0 appends
	for i := 0; i < crashAppends; i++ {
		crashAppend(t, gv, i)
		prefixes = append(prefixes, snapshotView(gv))
	}
	golden := prefixes[crashAppends]
	// Record byte length — every append writes the same amount, so one
	// probe calibrates the torn-length sweep.
	recLen := int(gv.Footprint()-int64(len(gv.encodeHeader()))) / crashAppends

	for kill := 1; kill <= crashAppends; kill++ {
		for _, short := range []int{0, 1, recLen / 2, recLen - 1, recLen} {
			dir := t.TempDir()
			e, _ := Open(dir)
			inj := faults.New(1)
			inj.Rule(faults.SiteViewWrite("det"),
				faults.Rule{Kind: faults.Crash, At: []int{kill}, ShortWrite: short})
			e.SetInjector(inj)
			v, err := e.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Fatal(err)
			}
			var crashErr error
			for i := 0; i < crashAppends && crashErr == nil; i++ {
				rows := types.NewBatch(viewSchema())
				base := int64(3 * i)
				rows.MustAppendRow(types.NewInt(base), types.NewString("car"), types.NewString("a"))
				rows.MustAppendRow(types.NewInt(base), types.NewString("bus"), types.NewString("b"))
				rows.MustAppendRow(types.NewInt(base+1), types.NewString("car"), types.NewString("c"))
				_, crashErr = v.Append(rows, [][]types.Datum{{types.NewInt(base + 2)}})
			}
			if !faults.IsCrash(crashErr) {
				t.Fatalf("kill=%d short=%d: crash not injected: %v", kill, short, crashErr)
			}
			// The crashed handle is dead: further appends must refuse
			// rather than diverge from disk.
			if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(99)}}); err == nil {
				t.Fatalf("kill=%d short=%d: dead view accepted an append", kill, short)
			}

			// Recovery: a fresh engine on the same directory.
			e2, _ := Open(dir)
			v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Fatalf("kill=%d short=%d: reopen failed: %v", kill, short, err)
			}
			// Consistent prefix. A full torn write (short == recLen)
			// made the killed append durable; short == 0 (and short ==
			// 1, which cannot complete even a record header) lose it
			// entirely; in-between tears may keep the append's rows
			// record but lose its keys record, so they are bounded by
			// the two surrounding prefixes.
			got := snapshotView(v2)
			switch {
			case short == 0 || short == recLen:
				want := prefixes[kill-1]
				if short == recLen {
					want = prefixes[kill]
				}
				if got.rows != want.rows || got.processed != want.processed || !bytes.Equal(got.data, want.data) {
					t.Fatalf("kill=%d short=%d: recovered rows=%d processed=%d, want rows=%d processed=%d",
						kill, short, got.rows, got.processed, want.rows, want.processed)
				}
			case short == 1:
				// One byte is never a complete record: the tail must be
				// detected and dropped.
				if v2.RecoveredBytes() == 0 {
					t.Errorf("kill=%d short=%d: torn tail not detected", kill, short)
				}
				want := prefixes[kill-1]
				if got.rows != want.rows || !bytes.Equal(got.data, want.data) {
					t.Fatalf("kill=%d short=%d: one-byte tear changed state", kill, short)
				}
			default:
				if !bytes.HasPrefix(golden.data, got.data) {
					t.Fatalf("kill=%d short=%d: recovered rows are not a prefix of golden", kill, short)
				}
				if got.rows < prefixes[kill-1].rows || got.rows > prefixes[kill].rows ||
					got.processed < prefixes[kill-1].processed || got.processed > prefixes[kill].processed {
					t.Fatalf("kill=%d short=%d: recovered rows=%d processed=%d outside [%d,%d] append window",
						kill, short, got.rows, got.processed, prefixes[kill-1].rows, prefixes[kill].rows)
				}
			}

			// Idempotent re-STORE: re-running the whole script lands
			// exactly on the golden state.
			for i := 0; i < crashAppends; i++ {
				crashAppend(t, v2, i)
			}
			final := snapshotView(v2)
			if final.rows != golden.rows || final.processed != golden.processed || !bytes.Equal(final.data, golden.data) {
				t.Fatalf("kill=%d short=%d: re-run diverged: rows=%d processed=%d, want rows=%d processed=%d",
					kill, short, final.rows, final.processed, golden.rows, golden.processed)
			}
			// And a second reopen of the healed log agrees too.
			e3, _ := Open(dir)
			v3, err := e3.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Fatalf("kill=%d short=%d: reopen after heal: %v", kill, short, err)
			}
			if s := snapshotView(v3); s.rows != golden.rows || !bytes.Equal(s.data, golden.data) {
				t.Fatalf("kill=%d short=%d: healed log replays wrong state", kill, short)
			}
		}
	}
}

// TestViewAppendRollbackOnWriteFault checks the non-crash failure path:
// a transient or permanent write fault must leave both the file and the
// in-memory state exactly as they were, so a caller-level retry starts
// from a clean slate.
func TestViewAppendRollbackOnWriteFault(t *testing.T) {
	for _, kind := range []faults.Kind{faults.Transient, faults.Permanent} {
		dir := t.TempDir()
		e, _ := Open(dir)
		inj := faults.New(1)
		inj.Rule(faults.SiteViewWrite("det"), faults.Rule{Kind: kind, At: []int{2}})
		e.SetInjector(inj)
		v, _ := e.CreateView("det", viewSchema(), []string{"id"})
		crashAppend(t, v, 0)
		before := snapshotView(v)
		fpBefore := v.Footprint()

		rows := types.NewBatch(viewSchema())
		rows.MustAppendRow(types.NewInt(50), types.NewString("car"), types.NewString("z"))
		if _, err := v.Append(rows, nil); err == nil {
			t.Fatalf("%v write fault did not surface", kind)
		}
		after := snapshotView(v)
		if after.rows != before.rows || after.processed != before.processed || v.Footprint() != fpBefore {
			t.Fatalf("%v fault leaked partial state: %+v vs %+v", kind, after, before)
		}
		fi, err := os.Stat(v.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != fpBefore {
			t.Fatalf("%v fault left the file at %d bytes, want %d", kind, fi.Size(), fpBefore)
		}
		// The view stays usable; the retried append succeeds and both
		// restates are durable.
		if n, err := v.Append(rows, nil); err != nil || n != 1 {
			t.Fatalf("retry after rollback: n=%d err=%v", n, err)
		}
		e2, _ := Open(dir)
		v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
		if err != nil || v2.Rows() != before.rows+1 {
			t.Fatalf("reopen after rollback+retry: rows=%d err=%v", v2.Rows(), err)
		}
	}
}

// TestViewChecksumDetectsBitrot flips one payload byte in a stored
// record and checks that reopening salvages around it: the corrupt
// record's rows are quarantined, every record after it is recovered,
// and the lost byte range is recorded for symbolic repair.
func TestViewChecksumDetectsBitrot(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	v, _ := e.CreateView("det", viewSchema(), []string{"id"})
	hdrLen := len(v.encodeHeader())
	crashAppend(t, v, 0)
	crashAppend(t, v, 1)
	if err := v.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	data[hdrLen+recHeaderLen+2] ^= 0xff
	if err := os.WriteFile(v.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, _ := Open(dir)
	v2, err := e2.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatalf("bitrot should recover, not fail: %v", err)
	}
	// The corrupt record held append 0's three rows; everything after
	// it (append 0's key record, append 1's rows and key) salvages.
	if v2.Rows() != 3 {
		t.Errorf("salvage kept %d rows, want 3 (the second append's)", v2.Rows())
	}
	if v2.ProcessedCount() != 4 {
		t.Errorf("salvage kept %d keys, want 4", v2.ProcessedCount())
	}
	q := v2.Quarantine()
	if q == nil {
		t.Fatal("bitrot left no quarantine record")
	}
	if len(q.Ranges) != 1 || q.Ranges[0].Lo != int64(hdrLen) {
		t.Errorf("quarantine ranges = %+v, want one starting at %d", q.Ranges, hdrLen)
	}
	if q.SalvagedRows != 3 || q.LostBytes == 0 {
		t.Errorf("quarantine = %+v, want 3 salvaged rows and lost bytes", q)
	}
	// No torn tail: the hole is mid-log, the file still ends on a
	// record boundary.
	if v2.RecoveredBytes() != 0 {
		t.Errorf("mid-log hole misreported as torn tail (%d bytes)", v2.RecoveredBytes())
	}
	// The quarantine is not written anywhere: the next open re-derives
	// the same one from the same bytes.
	e3, _ := Open(dir)
	v3, err := e3.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Rows() != 3 || v3.ProcessedCount() != 4 {
		t.Errorf("re-reopen diverged: rows=%d keys=%d", v3.Rows(), v3.ProcessedCount())
	}
	if q3 := v3.Quarantine(); q3 == nil || len(q3.Ranges) != 1 || q3.Ranges[0] != q.Ranges[0] {
		t.Errorf("re-reopen quarantine = %+v, want %+v", q3, q.Ranges)
	}
}
