package eva

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/simclock"
)

// A standing query's delta is a statement of the query's own Session
// (DESIGN.md §12): it holds the lifecycle lock, takes an admission
// token, is merged into the System's clock, nudges the background
// loops and is planned in Config.Mode. The tests below pin each of
// those on a System that only ingests — no client statement runs
// unless the case says so — with one concurrency token and a 1ms scrub
// cadence.

// sessionStreamDS is the live table the tests stream: 48 frames, six
// cadence-8 increments.
var sessionStreamDS = Dataset{Name: "live-session", Frames: 48, Width: 320, Height: 240, Density: 6, Seed: 0x57AB1E}

const (
	sessionStreamSQL     = `SELECT id, label FROM traffic CROSS APPLY YoloTiny(frame) WHERE label = 'car'`
	sessionStreamCadence = 8
)

// openSessionStream opens a System on dir and registers the one
// standing query; the System is closed when the test ends.
func openSessionStream(t *testing.T, dir string, mode SystemMode) (*System, *Stream) {
	t.Helper()
	sys := openAt(t, Config{Dir: dir, Mode: mode, MaxConcurrent: 1, ScrubInterval: time.Millisecond})
	stream, err := sys.OpenStream(StreamConfig{Table: "traffic", Dataset: sessionStreamDS, CadenceFrames: sessionStreamCadence})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.RegisterStandingQuery("cars", sessionStreamSQL, 8, 3, nil); err != nil {
		t.Fatal(err)
	}
	return sys, stream
}

// ingestSessionStream sends every frame and drains.
func ingestSessionStream(stream *Stream) error {
	if err := stream.Ingest(sessionStreamDS.Frames); err != nil {
		return err
	}
	return stream.Drain()
}

// handDeltaTime runs the stream's deltas by hand, as statements of a
// client session over a static copy of the table, and returns the
// virtual time they charge.
func handDeltaTime(t *testing.T) time.Duration {
	t.Helper()
	sys := openAt(t, Config{})
	if err := sys.LoadDataset("traffic", sessionStreamDS); err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	var total time.Duration
	for lo := 0; lo < sessionStreamDS.Frames; lo += sessionStreamCadence {
		res, err := sess.Exec(fmt.Sprintf("%s AND (id >= %d AND id < %d)", sessionStreamSQL, lo, lo+sessionStreamCadence))
		if err != nil {
			t.Fatal(err)
		}
		total += res.SimTime
	}
	return total
}

// TestStreamSessionModes: deltas are planned in the System's mode. The
// window counts and alerts are the same in every mode, and only EVA
// materialises views.
func TestStreamSessionModes(t *testing.T) {
	var ref string
	for _, tc := range []struct {
		mode  SystemMode
		views bool
	}{{ModeEVA, true}, {ModeNoReuse, false}, {ModeFunCache, false}} {
		t.Run(string(tc.mode), func(t *testing.T) {
			sys, stream := openSessionStream(t, t.TempDir(), tc.mode)
			if err := ingestSessionStream(stream); err != nil {
				t.Fatal(err)
			}
			if ref == "" {
				ref = standingDigest(stream)
			}
			same(t, "standing-query state against EVA mode's", ref, standingDigest(stream))
			if rows := sys.ViewRows(); (len(rows) > 0) != tc.views {
				t.Errorf("views = %v, want materialised views: %v", rows, tc.views)
			}
		})
	}
}

// TestStreamSessionPolicies replaces the four ways a delta used to
// differ from a statement with one check each.
func TestStreamSessionPolicies(t *testing.T) {
	// The unloaded run every case compares against: every delta was
	// admitted, and nothing else was.
	sys, stream := openSessionStream(t, t.TempDir(), ModeEVA)
	if err := ingestSessionStream(stream); err != nil {
		t.Fatal(err)
	}
	ref := standingDigest(stream)
	if got, want := sys.AdmissionStats().Admitted, stream.Stats().Increments; int64(got) != want {
		t.Fatalf("admitted %d statements, want one per increment (%d)", got, want)
	}

	cases := []struct {
		name  string
		check func(t *testing.T, dir string, sys *System, stream *Stream)
	}{
		{"close-drains-in-flight-delta", func(t *testing.T, dir string, sys *System, stream *Stream) {
			// Close without Drain: the queued batch's deltas still run,
			// because the streams close before the System does.
			const sent = 44
			if err := stream.Ingest(sent); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.OpenStream(StreamConfig{Table: "other", Dataset: sessionStreamDS}); !errors.Is(err, ErrClosed) {
				t.Errorf("OpenStream after Close = %v, want ErrClosed", err)
			}
			_, reopened := openSessionStream(t, dir, ModeEVA)
			q := reopened.StandingQueries()[0]
			if got, want := q.LastLSN(), int64(sent-sent%sessionStreamCadence); got != want {
				t.Errorf("LastLSN after reopen = %d, want the cadence-aligned watermark %d", got, want)
			}
		}},
		{"delta-takes-an-admission-token", func(t *testing.T, dir string, sys *System, stream *Stream) {
			// A client session holds the only token: every delta is shed,
			// the checkpoint stays put, and the next cycle re-runs it.
			if err := sys.LoadVideo("video", "jackson"); err != nil {
				t.Fatal(err)
			}
			started, release := blockingUDF(t, sys)
			done := make(chan error, 1)
			go func() {
				_, err := sys.NewSession().Exec(gateQuery)
				done <- err
			}()
			<-started
			if err := ingestSessionStream(stream); !errors.Is(err, ErrOverloaded) {
				t.Errorf("Drain while the token is held = %v, want ErrOverloaded", err)
			}
			if lsn := stream.StandingQueries()[0].LastLSN(); lsn != 0 {
				t.Errorf("LastLSN moved to %d on shed deltas", lsn)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := stream.Drain(); err != nil {
				t.Fatal(err)
			}
			same(t, "state after the shed deltas re-ran against the unloaded run's", ref, standingDigest(stream))
			// Every delta was admitted or shed; the two client statements
			// (CREATE UDF and the gated SELECT) were admitted besides.
			st := sys.AdmissionStats()
			if st.ShedOverload == 0 || int64(st.Admitted-2+st.ShedOverload) != stream.Stats().Increments {
				t.Errorf("admission %+v does not account for %d increments", st, stream.Stats().Increments)
			}
		}},
		{"global-clock-includes-deltas", func(t *testing.T, dir string, sys *System, stream *Stream) {
			if got := sys.SimulatedTime(); got != 0 {
				t.Fatalf("clock before ingest = %v", got)
			}
			if err := ingestSessionStream(stream); err != nil {
				t.Fatal(err)
			}
			if got, want := sys.SimulatedTime(), handDeltaTime(t); got != want || want == 0 {
				t.Errorf("System.SimulatedTime = %v, want the deltas' %v", got, want)
			}
			if sys.SimulatedBreakdown().Get(simclock.CatUDF) == 0 {
				t.Errorf("no UDF time in %v", sys.SimulatedBreakdown())
			}
		}},
		{"delta-nudges-the-scrubber", func(t *testing.T, dir string, sys *System, stream *Stream) {
			if err := ingestSessionStream(stream); err != nil {
				t.Fatal(err)
			}
			// Every delta advances the clock past the 1ms cadence, so
			// each delta's boundary runs one pass.
			want := ScrubberStats{Passes: int(stream.Stats().Increments)}
			if st := sys.StorageStats().Scrub; st != want || want.Passes == 0 {
				t.Errorf("scrub cadence after the deltas = %+v, want %+v", st, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys, stream := openSessionStream(t, dir, ModeEVA)
			tc.check(t, dir, sys, stream)
		})
	}
}

// TestFailedOpenStreamCanBeRetried: an open that storage refuses leaves
// no table behind in the catalog either. A live table holding 80
// durable frames cannot reopen at a capacity of 50; the retry at 100
// opens it, with the 80 frames.
func TestFailedOpenStreamCanBeRetried(t *testing.T) {
	dir := t.TempDir()
	ds := Dataset{Name: "live-retry", Frames: 100, Width: 320, Height: 240, Density: 2, Seed: 0x5EED}
	sys := openAt(t, Config{Dir: dir})
	stream, err := sys.OpenStream(StreamConfig{Table: "live", Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Ingest(80); err != nil {
		t.Fatal(err)
	}
	if err := stream.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys = openAt(t, Config{Dir: dir})
	small := ds
	small.Frames = 50
	if _, err := sys.OpenStream(StreamConfig{Table: "live", Dataset: small}); err == nil || !strings.Contains(err.Error(), "watermark 80 past capacity 50") {
		t.Fatalf("open at capacity 50: err = %v, want the watermark past capacity", err)
	}
	stream, err = sys.OpenStream(StreamConfig{Table: "live", Dataset: ds})
	if err != nil {
		t.Fatalf("retry at capacity 100: %v", err)
	}
	if wm := stream.Stats().Watermark; wm != 80 {
		t.Errorf("reopened watermark %d, want 80", wm)
	}
	res, err := sys.Exec(`SELECT COUNT(*) FROM live`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows.At(0, 0).Int(); got != 80 {
		t.Errorf("the reopened table scans %d frames, want 80", got)
	}
}

// TestRetryChargesStream: a watermark append that draws two transient
// disk:fulls is retried by the store's one loop, whose backoff goes to
// the stream's clock, beside the checkpoints' — not to the System's,
// which holds the statements' time only. No standing query runs.
func TestRetryChargesStream(t *testing.T) {
	sys := openAt(t, Config{})
	stream, err := sys.OpenStream(StreamConfig{Table: "traffic", Dataset: sessionStreamDS, CadenceFrames: sessionStreamCadence})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1)
	inj.Rule(faults.SiteDiskFull(faults.SiteIngestAppend("traffic")), faults.Rule{Kind: faults.Transient, At: []int{1, 2}})
	stream.injectFaults(inj)
	if err := ingestSessionStream(stream); err != nil {
		t.Fatal(err)
	}
	if ev := inj.Events(); len(ev) != 2 {
		t.Fatalf("disk:full faults %v, want two on one append", ev)
	}
	want := costs.RetryBackoff(1) + costs.RetryBackoff(2)
	if got := stream.SimulatedTime().Get(simclock.CatRetry); got != want {
		t.Errorf("stream's retry time = %v, want %v", got, want)
	}
	if got := sys.SimulatedBreakdown().Get(simclock.CatRetry); got != 0 {
		t.Errorf("System's retry time = %v, want 0", got)
	}
}
