//go:build unix

package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eva/internal/testutil"
)

// A reopened system opens the views a statement needs while planning it
// (DESIGN.md "Durable aggregated predicates", "Lazy load"): no replay
// holds the UDF manager's or the storage engine's lock, so a statement
// over views that are open never waits for another's replay, and
// statements that reach one view at once share its one replay.

// firstTouchQueries read three views of video — the detector's, CarType's
// and ColorDet's — and the detector's view of other, over ranges that
// overlap.
var firstTouchQueries = []string{
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 300 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`,
	`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= 100 AND id < 400 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`,
	`SELECT id, label, ColorDet(frame, bbox) AS color FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`,
	`SELECT id, label FROM other CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 500`,
}

// openFirstTouch opens a system over dir with video and other loaded.
func openFirstTouch(t *testing.T, dir string, workers int) *System {
	t.Helper()
	sys := openAt(t, Config{Dir: dir, Workers: workers})
	for _, table := range []string{"video", "other"} {
		if err := sys.LoadVideo(table, "jackson"); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// populateFirstTouch materializes every view firstTouchQueries read in
// dir and returns each query's answer.
func populateFirstTouch(t *testing.T, dir string) []string {
	t.Helper()
	sys := openFirstTouch(t, dir, 0)
	want := make([]string, len(firstTouchQueries))
	for i, q := range firstTouchQueries {
		want[i] = answerOf(t, sys.NewSession(), q)
	}
	closeOK(t, sys)
	return want
}

func answerOf(t *testing.T, sess *Session, q string) string {
	t.Helper()
	res, err := sess.Exec(q)
	if err != nil {
		t.Error(err)
		return ""
	}
	var out strings.Builder
	writeResult(&out, res, answers)
	return out.String()
}

// viewLog returns the path of the one view log in dir whose name holds
// part.
func viewLog(t *testing.T, dir, part string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "views", "*"+part+"*.view"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("view logs matching %q: %v (%v)", part, logs, err)
	}
	return logs[0]
}

// TestPlanningDoesNotWaitForAReplay: while one session's statement
// replays the log of a view it needs, another session plans and runs a
// query over views that are open already, and returns before that
// replay ends.
func TestPlanningDoesNotWaitForAReplay(t *testing.T) {
	dir := t.TempDir()
	want := populateFirstTouch(t, dir)
	sys := openFirstTouch(t, dir, 0)
	if got := answerOf(t, sys.NewSession(), firstTouchQueries[0]); got != want[0] {
		t.Fatalf("warm-up answer differs from the populating run's")
	}
	entered, release := testutil.HoldFile(t, viewLog(t, dir, "other"))
	replaying := make(chan string, 1)
	go func() { replaying <- answerOf(t, sys.NewSession(), firstTouchQueries[3]) }()
	<-entered

	served := make(chan string, 1)
	go func() { served <- answerOf(t, sys.NewSession(), firstTouchQueries[0]) }()
	select {
	case got := <-served:
		same(t, "query over open views", want[0], got)
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a query over open views waited for another statement's replay")
	}
	select {
	case <-replaying:
		t.Fatal("the replaying statement finished before its replay was let go")
	default:
	}
	release()
	same(t, "query over the replayed view", want[3], <-replaying)
	closeOK(t, sys)
}

// TestConcurrentFirstTouchReplaysOnce: sessions and the root session
// make their first touch of a reopened directory at once, several of
// them reaching the same views. Each view log is replayed once, every
// answer is the one the query gave when it materialized the views, and
// a Close issued while a view is being opened waits for the open, with
// no goroutine left behind.
func TestConcurrentFirstTouchReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	want := populateFirstTouch(t, dir)
	logs, err := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	if err != nil || len(logs) != 4 {
		t.Fatalf("view logs %v (%v), want 4", logs, err)
	}
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sys := openFirstTouch(t, dir, w)
			start := make(chan struct{})
			got := make([]string, 2*len(firstTouchQueries))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					q := firstTouchQueries[i%len(firstTouchQueries)]
					if i == 0 {
						res, err := sys.Exec(q)
						if err != nil {
							t.Error(err)
							return
						}
						var out strings.Builder
						writeResult(&out, res, answers)
						got[i] = out.String()
						return
					}
					got[i] = answerOf(t, sys.NewSession(), q)
				}()
			}
			close(start)
			wg.Wait()
			for i, g := range got {
				same(t, fmt.Sprintf("client %d", i), want[i%len(want)], g)
			}
			if n := sys.store.ViewOpens(); n != int64(len(logs)) {
				t.Errorf("%d view logs opened, want %d: one replay each", n, len(logs))
			}
			closeOK(t, sys)
			testutil.CheckNoGoroutineLeak(t, before)
		})
	}
	t.Run("close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		sys := openFirstTouch(t, dir, 0)
		entered, release := testutil.HoldFile(t, viewLog(t, dir, "other"))
		answered := make(chan string, 1)
		go func() { answered <- answerOf(t, sys.NewSession(), firstTouchQueries[3]) }()
		<-entered
		closed := make(chan error, 1)
		go func() { closed <- sys.Close() }()
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while a view was being opened", err)
		case <-time.After(50 * time.Millisecond):
		}
		release()
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		same(t, "statement that opened a view during Close", want[3], <-answered)
		if _, err := os.Stat(viewLog(t, dir, "other")); err != nil {
			t.Fatal(err)
		}
		testutil.CheckNoGoroutineLeak(t, before)
	})
}
