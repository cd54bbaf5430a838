//go:build unix

package storage

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"eva/internal/testutil"
	"eva/internal/types"
)

// heldDet writes a det view of 50 appends in dir and returns an engine
// reopened over it, whose next open of det waits in the log's read until
// release is called; entered closes once one does.
func heldDet(t *testing.T, dir string) (e *Engine, entered <-chan struct{}, release func()) {
	t.Helper()
	first, v := openDet(t, dir)
	for i := range 50 {
		crashAppend(t, v, i)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entered, release = testutil.HoldFile(t, e.viewPath("det"))
	return e, entered, release
}

// TestConcurrentOpensShareOneReplay: callers that reach a view while its
// log is being opened — by Existing, as the UDF manager does, or by
// CreateView, as an operator does — wait for that one open and get the
// view it published, and while the log replays, other views open and the
// engine answers without waiting for it.
func TestConcurrentOpensShareOneReplay(t *testing.T) {
	e, entered, release := heldDet(t, t.TempDir())
	defer e.Close()
	views := make([]*View, 6)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				views[i] = e.Existing("det")
				return
			}
			v, err := e.CreateView("det", viewSchema(), []string{"id"})
			if err != nil {
				t.Error(err)
			}
			views[i] = v
		}()
	}
	<-entered
	reached := make(chan error, 1)
	go func() {
		other, err := e.CreateView("other", viewSchema(), []string{"id"})
		if err == nil {
			_, err = other.Append(mkRows(1), nil)
		}
		if got := e.Views(); err == nil && !slices.Equal(got, []string{"other"}) {
			err = fmt.Errorf("views %v while det replays, want [other]", got)
		}
		reached <- err
	}()
	select {
	case err := <-reached:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("opening another view waited for det's replay")
	}
	release()
	wg.Wait()
	for i, v := range views {
		if v == nil || v != views[0] {
			t.Fatalf("caller %d got view %p, caller 0 %p", i, v, views[0])
		}
	}
	if got := e.ViewOpens(); got != 2 {
		t.Fatalf("%d view logs opened, want 2 (det once, other)", got)
	}
	if got := views[0].Rows(); got != 150 {
		t.Fatalf("det replayed %d rows, want 150", got)
	}
}

// TestCloseWaitsForOpenInFlight: Close waits for a view log that is being
// opened, and closes the view it published; nothing the open started
// outlives Close.
func TestCloseWaitsForOpenInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	e, entered, release := heldDet(t, t.TempDir())
	opened := make(chan *View, 1)
	go func() { opened <- e.Existing("det") }()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an open in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	v := <-opened
	if v == nil {
		t.Fatal("the open in flight during Close found no view")
	}
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1000), types.NewString("car"), types.NewString("z"))
	if _, err := v.Append(rows, nil); err == nil {
		t.Fatal("a view opened during Close takes appends after it")
	}
	testutil.CheckNoGoroutineLeak(t, before)
}
