package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"eva/internal/core"
	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/testutil"
	"eva/internal/vision"
)

const testFrames = 48

func testDS() vision.Dataset {
	return vision.Dataset{Name: "live-test", Frames: testFrames, Width: 320, Height: 240, Density: 6, Seed: 0x57AB1E}
}

const testSQL = `SELECT id, label FROM traffic CROSS APPLY YoloTiny(frame) WHERE label = 'car'`

// openTestStream builds a stream over a fresh core engine on dir.
func openTestStream(t *testing.T, dir string, cfg Config) (*core.Engine, *Stream) {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(store, 0)
	cfg.Engine = eng
	cfg.Table = "traffic"
	cfg.Dataset = testDS()
	s, err := OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// queryDigest canonically renders a standing query's committed state.
func queryDigest(q *StandingQuery) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lsn=%d\n", q.LastLSN())
	wins := q.Windows()
	ws := make([]int64, 0, len(wins))
	// lint:unordered key collection; sorted below
	for w := range wins {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	for _, w := range ws {
		fmt.Fprintf(&b, "window %d: %d\n", w, wins[w])
	}
	for _, a := range q.Alerts() {
		fmt.Fprintf(&b, "alert %+v\n", a)
	}
	return b.String()
}

// TestStreamStandingQuery is the happy path: ingest everything, drain,
// and the standing query's window counts must equal an independent
// batch execution of the same SELECT over the full range.
func TestStreamStandingQuery(t *testing.T) {
	eng, s := openTestStream(t, t.TempDir(), Config{CadenceFrames: 8})
	defer s.Close()
	var fired []Alert
	q, err := s.Register("cars", testSQL, 8, 3, func(a Alert) { fired = append(fired, a) })
	if err != nil {
		t.Fatal(err)
	}
	for sent := 0; sent < testFrames; sent += 7 {
		n := 7
		if sent+n > testFrames {
			n = testFrames - sent
		}
		if err := s.Ingest(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := q.LastLSN(); got != testFrames {
		t.Fatalf("LastLSN = %d, want %d", got, testFrames)
	}

	// Independent recomputation on the same engine (views are shared,
	// but counting is over result rows either way).
	stmt := q.deltaStmt(0, testFrames)
	out, err := eng.Execute(stmt, optimizer.EVAMode(), core.ExecOpts{Sessions: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	idIdx := out.Rows.Schema().IndexOf("id")
	for r := 0; r < out.Rows.Len(); r++ {
		want[out.Rows.At(r, idIdx).Int()/8]++
	}
	got := q.Windows()
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("window %d = %d, want %d", w, got[w], c)
		}
	}
	// Alerts match the derived rule and arrived through the callback.
	var wantAlerts int
	for _, c := range want {
		if c >= 3 {
			wantAlerts++
		}
	}
	if len(q.Alerts()) != wantAlerts || len(fired) != wantAlerts {
		t.Fatalf("alerts state=%d delivered=%d, want %d", len(q.Alerts()), len(fired), wantAlerts)
	}
	delivered, dropped := q.Deliveries()
	if delivered != wantAlerts || dropped != 0 {
		t.Fatalf("deliveries = %d/%d", delivered, dropped)
	}
	if st := s.Stats(); st.Ingested != testFrames || st.Watermark != testFrames || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStreamCadenceInvariant: the same ingestion at different cadences
// (and batch sizes) converges to byte-identical standing-query state —
// the property that makes degradation safe.
func TestStreamCadenceInvariant(t *testing.T) {
	var digests []string
	for _, tc := range []struct {
		cadence int64
		batch   int
	}{{4, 5}, {8, 7}, {16, 48}} {
		_, s := openTestStream(t, t.TempDir(), Config{CadenceFrames: tc.cadence})
		q, err := s.Register("cars", testSQL, 8, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for sent := 0; sent < testFrames; sent += tc.batch {
			n := tc.batch
			if sent+n > testFrames {
				n = testFrames - sent
			}
			if err := s.Ingest(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, queryDigest(q))
		s.Close()
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("cadence changed the result:\n%s\nvs\n%s", digests[i], digests[0])
		}
	}
}

// TestStreamBackpressureDegradeBeforeShed pins the typed backpressure
// ordering. With the pump stalled, TryIngest keeps succeeding while
// the backlog crosses the degrade high-water mark — degradation, not
// shedding, is the first response — and only a full queue sheds, with
// ErrFrameShed. Once the pump runs, the backlogged cycles execute at
// degraded cadence and every accepted frame survives.
func TestStreamBackpressureDegradeBeforeShed(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStream(Config{
		Engine: core.New(store, 0), Table: "traffic", Dataset: testDS(),
		QueueDepth: 4, DegradeHighWater: 2, CadenceFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("cars", testSQL, 8, 3, nil); err != nil {
		t.Fatal(err)
	}
	// Pump not started: the queue fills deterministically.
	for i := 0; i < 4; i++ {
		// Past the high-water mark (backlog 2 and 3) enqueues must
		// still be accepted: degrade comes before shed.
		if err := s.TryIngest(6); err != nil {
			t.Fatalf("enqueue %d (backlog %d): %v", i, len(s.queue), err)
		}
	}
	if err := s.TryIngest(6); !errors.Is(err, ErrFrameShed) {
		t.Fatalf("full queue: err = %v, want ErrFrameShed", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Degraded != 0 {
		t.Fatalf("pre-pump stats = %+v", st)
	}

	s.start()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Degraded == 0 {
		t.Fatal("backlogged cycles did not degrade cadence")
	}
	if st.Ingested != 24 || st.Watermark != 24 {
		t.Fatalf("accepted frames lost: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCrashResume: a crash at the checkpoint site kills the
// stream with a typed error; reopening everything on the same root and
// re-ingesting the un-durable frames converges byte-identically to an
// uninterrupted run, with no increment applied twice.
func TestStreamCrashResume(t *testing.T) {
	// Uninterrupted baseline.
	_, base := openTestStream(t, t.TempDir(), Config{CadenceFrames: 8})
	bq, err := base.Register("cars", testSQL, 8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Ingest(testFrames); err != nil {
		t.Fatal(err)
	}
	if err := base.Drain(); err != nil {
		t.Fatal(err)
	}
	golden := queryDigest(bq)
	base.Close()

	dir := t.TempDir()
	_, s := openTestStream(t, dir, Config{CadenceFrames: 8})
	if _, err := s.Register("cars", testSQL, 8, 3, nil); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(7)
	inj.Rule(faults.SiteIngestCheckpoint("cars"), faults.Rule{Kind: faults.Crash, At: []int{3}})
	s.SetInjector(inj)
	for sent := 0; sent < testFrames; sent += 6 {
		if err := s.Ingest(6); err != nil {
			break
		}
	}
	err = s.Drain()
	if !errors.Is(err, ErrStreamDead) || !faults.IsCrash(err) {
		t.Fatalf("drain after crash = %v, want ErrStreamDead wrapping the crash fault", err)
	}
	// Dead stream refuses everything with the typed error.
	if err := s.Ingest(1); !errors.Is(err, ErrStreamDead) {
		t.Fatalf("ingest on dead stream = %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("no fault was injected")
	}
	s.Close()

	// Resume: fresh engine over the same root recovers watermark and
	// checkpoint; re-ingest what is not yet durable.
	_, s2 := openTestStream(t, dir, Config{CadenceFrames: 8})
	defer s2.Close()
	q2, err := s2.Register("cars", testSQL, 8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumedFrom := q2.LastLSN()
	if resumedFrom <= 0 || resumedFrom >= testFrames {
		t.Fatalf("checkpoint resumed from %d", resumedFrom)
	}
	missing := testFrames - s2.Stats().Watermark
	if missing > 0 {
		if err := s2.Ingest(int(missing)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := queryDigest(q2); got != golden {
		t.Fatalf("resumed state diverged:\n%s\nvs golden\n%s", got, golden)
	}
}

// TestStreamTransientFaultsRecover: a transient-probability schedule
// across every ingest site retries to success — same final state as a
// fault-free run, with retry time charged to the virtual clock.
func TestStreamTransientFaultsRecover(t *testing.T) {
	_, base := openTestStream(t, t.TempDir(), Config{CadenceFrames: 8})
	bq, _ := base.Register("cars", testSQL, 8, 3, nil)
	if err := base.Ingest(testFrames); err != nil {
		t.Fatal(err)
	}
	if err := base.Drain(); err != nil {
		t.Fatal(err)
	}
	golden := queryDigest(bq)
	base.Close()

	_, s := openTestStream(t, t.TempDir(), Config{CadenceFrames: 8})
	defer s.Close()
	q, _ := s.Register("cars", testSQL, 8, 3, nil)
	inj := faults.New(11)
	inj.Rule(faults.SiteIngestAny, faults.Rule{Kind: faults.Transient, Prob: 0.3})
	s.SetInjector(inj)
	for sent := 0; sent < testFrames; sent += 5 {
		n := 5
		if sent+n > testFrames {
			n = testFrames - sent
		}
		if err := s.Ingest(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("transient faults did not recover: %v", err)
	}
	if got := queryDigest(q); got != golden {
		t.Fatalf("transient run diverged:\n%s\nvs\n%s", got, golden)
	}
	if inj.Injected() == 0 {
		t.Fatal("no transient fault was injected")
	}
	if bd := s.SimulatedTime(); bd.Get(simclock.CatRetry) == 0 {
		t.Fatalf("no retry backoff charged: %v", bd)
	}
}

// TestStreamValidation rejects malformed standing queries with
// explanatory errors.
func TestStreamValidation(t *testing.T) {
	_, s := openTestStream(t, t.TempDir(), Config{})
	defer s.Close()
	cases := []struct {
		name, sql string
		window    int64
	}{
		{"wrong-table", `SELECT id FROM other`, 8},
		{"no-id", `SELECT label FROM traffic CROSS APPLY YoloTiny(frame)`, 8},
		{"limit", `SELECT id FROM traffic LIMIT 5`, 8},
		{"order", `SELECT id FROM traffic ORDER BY id`, 8},
		{"bad-window", `SELECT id FROM traffic`, 0},
	}
	for _, tc := range cases {
		if _, err := s.Register(tc.name, tc.sql, tc.window, 1, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := s.Register("ok", `SELECT id FROM traffic`, 8, 1, nil); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if _, err := s.Register("ok", `SELECT id FROM traffic`, 8, 1, nil); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestStreamNoGoroutineLeak: a full open/register/ingest/drain/close
// cycle leaves no tracked goroutine behind.
func TestStreamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	_, s := openTestStream(t, t.TempDir(), Config{CadenceFrames: 8})
	if _, err := s.Register("cars", testSQL, 8, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(16); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed stream rejects everything with the typed error.
	if err := s.Ingest(1); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("ingest after close = %v", err)
	}
	if err := s.Drain(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("drain after close = %v", err)
	}
	testutil.CheckNoGoroutineLeak(t, before)
}
