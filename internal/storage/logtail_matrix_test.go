package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/faults"
)

// toyLog is the smallest owner a TailLog can have: the two-byte schema
// of tailReplay ([val, ^val] after "HD"), last record wins, so its fold
// is header + last record.
type toyLog struct {
	log  *TailLog
	last byte
}

func toyRecs(vals ...byte) []byte {
	var out []byte
	for _, v := range vals {
		out = append(out, v, ^v)
	}
	return out
}

func (o *toyLog) fold() error { return o.log.Fold(append([]byte("HD"), toyRecs(o.last)...)) }

// append writes vals as one record through the retry loop; the LSN is
// the footprint, as in the view log.
func (o *toyLog) append(inj *faults.Injector, vals ...byte) error {
	return o.log.Retry(func() error {
		if err := o.log.Append(toyRecs(vals...), uint64(o.log.footprint), inj); err != nil {
			return err
		}
		o.last = vals[len(vals)-1]
		return nil
	})
}

const toySite = "view:write:toy"

func openToy(t *testing.T, e *Engine, path string, charge func(int)) *toyLog {
	t.Helper()
	o := &toyLog{}
	log, err := OpenTailLog(path, "toy log", toySite, []byte("HD"), e.Budget(), func(data []byte) (int, error) {
		valid, err := tailReplay(data)
		if valid > 2 {
			o.last = data[valid-2]
		}
		return valid, err
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(e, "", charge, o.fold)
	o.log = log
	return o
}

// TestTailLogMatrix drives one append of a three-record batch through
// every combination of injected fault (none, or one of three kinds at
// either fault site, letting 0, 3 or 5 of the 6 bytes through), budget
// verdict (admits; denies until the fold has freed enough; denies even
// then) and fold commit (rename works or fails), on a log that already
// holds five records. Each cell checks the bytes on disk, the
// footprint, the dead flag, the ledger, and how the retry loop ended:
// nil, the fault itself, or the typed ErrDiskBudget — the last only
// when the reclaim ladder (empty here: nothing to evict) ran dry.
func TestTailLogMatrix(t *testing.T) {
	history := append([]byte("HD"), toyRecs(1, 2, 3, 4, 5)...)
	folded := append([]byte("HD"), toyRecs(5)...)
	batch := toyRecs(6, 7, 8)
	const none = faults.Kind(-1)
	budgets := []struct {
		name  string
		limit int64
	}{
		{"admits", 0},
		{"fold-frees-enough", int64(len(history) + len(batch) - 1)},
		{"fold-does-not", int64(len(folded) + len(batch) - 1)},
	}
	for _, kind := range []faults.Kind{none, faults.Transient, faults.Permanent, faults.Crash} {
		for _, short := range []int{0, 3, 5} {
			for _, shadow := range []bool{true, false} {
				if kind == none && (short != 0 || shadow) {
					continue // no fault: one cell per budget × rename
				}
				for bi, budget := range budgets {
					for _, renameFails := range []bool{false, true} {
						name := fmt.Sprintf("kind=%d/short=%d/shadow=%v/%s/renameFails=%v", kind, short, shadow, budget.name, renameFails)
						t.Run(name, func(t *testing.T) {
							dir := t.TempDir()
							e, err := Open(dir)
							if err != nil {
								t.Fatal(err)
							}
							e.SetBudget(NewDiskBudget(budget.limit))
							path := filepath.Join(dir, "toy.log")
							if err := os.WriteFile(path, history, 0o644); err != nil {
								t.Fatal(err)
							}
							charges := 0
							o := openToy(t, e, path, func(int) { charges++ })
							inj := faults.New(1)
							site := toySite
							if shadow {
								site = faults.SiteDiskFull(toySite)
							}
							if kind != none {
								inj.Rule(site, faults.Rule{Kind: kind, At: []int{1}, ShortWrite: short})
							}
							if renameFails {
								renameFile = func(string, string) error { return errors.New("rename refused") }
								defer func() { renameFile = os.Rename }()
							}

							err = o.append(inj, 6, 7, 8)

							// The model: what the protocol promises for this cell.
							wantFile, wantDead, wantCharges := history, false, 0
							var wantErr func(error) bool
							retried := false
							switch {
							case kind == faults.Crash:
								wantFile, wantDead, wantErr = append(append([]byte(nil), history...), batch[:short]...), true, faults.IsCrash
							case kind != none && !shadow:
								// A write fault is the caller's to retry, not the
								// loop's: rolled back, surfaced as it is.
								wantErr = func(err error) bool {
									return !errors.Is(err, ErrDiskBudget) && faults.IsTransient(err) == (kind == faults.Transient)
								}
							case kind == faults.Permanent:
								wantErr = func(err error) bool { return errors.Is(err, ErrDiskBudget) }
							case kind == faults.Transient:
								retried, wantCharges = true, 1
							}
							if kind == none || retried {
								// This attempt meets only the budget.
								switch {
								case bi == 0:
									wantFile = append(append([]byte(nil), history...), batch...)
								case renameFails:
									wantErr = func(err error) bool { return errors.Is(err, ErrDiskBudget) }
								case bi == 1:
									wantFile = append(append([]byte(nil), folded...), batch...)
								default:
									wantFile = folded
									wantErr = func(err error) bool { return errors.Is(err, ErrDiskBudget) }
								}
							}

							if wantErr == nil && err != nil {
								t.Fatalf("append failed: %v", err)
							}
							if wantErr != nil && (err == nil || !wantErr(err)) {
								t.Fatalf("append ended with %v", err)
							}
							got, rerr := os.ReadFile(path)
							if rerr != nil {
								t.Fatal(rerr)
							}
							if !bytes.Equal(got, wantFile) {
								t.Errorf("file holds %x, want %x", got, wantFile)
							}
							wantFoot := int64(len(wantFile))
							if wantDead {
								wantFoot = int64(len(history)) // the torn tail is not the log's
							}
							if o.log.footprint != wantFoot || o.log.dead != wantDead {
								t.Errorf("footprint=%d dead=%v, want %d/%v", o.log.footprint, o.log.dead, wantFoot, wantDead)
							}
							if used := e.Budget().Stats().UsedBytes; used != wantFoot {
								t.Errorf("ledger charges %d bytes, want %d", used, wantFoot)
							}
							if charges != wantCharges {
								t.Errorf("retry backoff charged %d times, want %d", charges, wantCharges)
							}
							if _, err := os.Stat(scratchPath(path)); !os.IsNotExist(err) {
								t.Error("scratch file left behind")
							}
							if wantDead {
								if err := o.append(nil, 9); err == nil {
									t.Error("dead log accepted an append")
								}
								// The next open keeps the whole records of the
								// torn tail and drops the rest.
								o2 := openToy(t, e, path, nil)
								if want := int64(len(history) + short/2*2); o2.log.footprint != want || o2.log.recovered != int64(short%2) {
									t.Errorf("reopen: footprint=%d recovered=%d, want %d/%d", o2.log.footprint, o2.log.recovered, want, short%2)
								}
							} else if err := o.append(nil, 9); bi == 0 && err != nil {
								t.Errorf("log unusable after the cell: %v", err)
							}
						})
					}
				}
			}
		}
	}
}

// TestTailLogRetryBound: a disk-full schedule that never drains ends at
// the retry bound with the typed error, having charged every retry but
// the last.
func TestTailLogRetryBound(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	charges := 0
	o := openToy(t, e, filepath.Join(dir, "toy.log"), func(int) { charges++ })
	inj := faults.New(1)
	inj.Rule(faults.SiteDiskFull(toySite), faults.Rule{Kind: faults.Transient, Prob: 1})
	if err := o.append(inj, 1); !errors.Is(err, ErrDiskBudget) {
		t.Fatalf("append ended with %v, want ErrDiskBudget", err)
	}
	if charges != evictRetryMax-1 || o.log.footprint != 2 || o.log.dead {
		t.Fatalf("charges=%d footprint=%d dead=%v, want %d/2/false", charges, o.log.footprint, o.log.dead, evictRetryMax-1)
	}
	// Without an engine there is no ladder: the first shortage is final.
	o.log.Attach(nil, "", nil, nil)
	if err := o.append(inj, 1); !errors.Is(err, ErrDiskBudget) {
		t.Fatalf("detached append ended with %v, want ErrDiskBudget", err)
	}
	if charges != evictRetryMax-1 {
		t.Fatalf("detached log charged a retry")
	}
}

// TestTailLogSwapReopenFails: when the fold's rename fails and the old
// generation cannot be reopened either, the handle is dead.
func TestTailLogSwapReopenFails(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(dir)
	path := filepath.Join(dir, "toy.log")
	o := openToy(t, e, path, nil)
	if err := o.append(nil, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	renameFile = func(string, string) error {
		// Take the log away under the failed commit.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		return errors.New("rename refused")
	}
	defer func() { renameFile = os.Rename }()
	if err := o.fold(); err == nil {
		t.Fatal("fold succeeded")
	}
	if !o.log.dead {
		t.Fatal("handle survived losing its file")
	}
}
