package eva

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eva/internal/faults"
)

// The ingest chaos matrix is the streaming analogue of the query-path
// matrix in chaos_test.go: every standing-query script under
// testdata/standing runs through a kill-point sweep — a deterministic
// crash injected at the k-th live append, checkpoint write or alert
// notification — followed by a reopen of the same storage directory
// and a resumed ingest of the remaining frames. The resumed run's
// final standing-query state (checkpoint LSN, window counts, alert
// set) must byte-match an uninterrupted baseline: increments replay
// exactly-once from the durable checkpoint, never twice, never
// skipped. Each (script, seed) cell also runs at Workers 1, 2 and 8,
// and the full digest — final state plus the canonical injected-fault
// event log — must be byte-identical across the three, because the
// ingest pump serializes append → increment → checkpoint → notify
// regardless of intra-query parallelism.

// ingestChaosSeeds spans the kill-point grid: site = [append,
// checkpoint, notify][seed%3], arrival ordinal = 1 + seed/3, so 18
// seeds cover six ordinals per site family.
const ingestChaosSeeds = 18

// standingSpec is one named standing query from a script.
type standingSpec struct {
	name      string
	threshold int64
	sql       string
}

// standingScript is one parsed testdata/standing/*.sq file.
type standingScript struct {
	name    string
	frames  int
	window  int64
	cadence int64
	batch   int
	dataset Dataset
	queries []standingSpec
}

// loadStandingScripts parses every script under testdata/standing.
// Directive lines ("-- key: value") set stream parameters; each
// "-- query: <name> threshold=<k>" directive is followed by the
// query's SQL, terminated by a semicolon.
func loadStandingScripts(t *testing.T) []standingScript {
	t.Helper()
	var scripts []standingScript
	for _, file := range loadScripts(t, standingScripts) {
		sc := standingScript{name: strings.TrimSuffix(file.name, ".sq")}
		ds := Dataset{Width: 320, Height: 240}
		num := func(s string) int {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				t.Fatalf("%s: bad number %q", file.name, s)
			}
			return n
		}
		var cur *standingSpec
		var sql strings.Builder
		flush := func() {
			if cur != nil {
				cur.sql = strings.TrimSuffix(strings.TrimSpace(sql.String()), ";")
				sc.queries = append(sc.queries, *cur)
				cur = nil
				sql.Reset()
			}
		}
		for _, line := range strings.Split(file.src, "\n") {
			trimmed := strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(trimmed, "--"); ok {
				key, val, found := strings.Cut(strings.TrimSpace(rest), ":")
				if !found {
					continue // prose comment
				}
				val = strings.TrimSpace(val)
				switch strings.TrimSpace(key) {
				case "frames":
					sc.frames = num(val)
				case "window":
					sc.window = int64(num(val))
				case "cadence":
					sc.cadence = int64(num(val))
				case "batch":
					sc.batch = num(val)
				case "density":
					ds.Density = float64(num(val))
				case "dataset-seed":
					ds.Seed = uint64(num(val))
				case "query":
					flush()
					name, thr, found := strings.Cut(val, " threshold=")
					if !found {
						t.Fatalf("%s: bad query directive %q", file.name, val)
					}
					cur = &standingSpec{name: strings.TrimSpace(name), threshold: int64(num(thr))}
				}
				continue
			}
			if cur != nil && trimmed != "" {
				sql.WriteString(line)
				sql.WriteString("\n")
			}
		}
		flush()
		if sc.frames == 0 || sc.window == 0 || sc.batch == 0 || len(sc.queries) == 0 {
			t.Fatalf("%s: incomplete script: %+v", file.name, sc)
		}
		ds.Name = sc.name
		ds.Frames = sc.frames
		sc.dataset = ds
		scripts = append(scripts, sc)
	}
	return scripts
}

// openScriptStream opens a System on dir and attaches the script's
// stream and standing queries. DegradeHighWater stays 0 so cadence
// degradation never perturbs the chaos cells' schedules.
func openScriptStream(t *testing.T, sc standingScript, dir string, workers int) (*System, *Stream) {
	t.Helper()
	sys, err := Open(Config{Dir: dir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sys.OpenStream(StreamConfig{
		Table:         "traffic",
		Dataset:       sc.dataset,
		CadenceFrames: sc.cadence,
	})
	if err != nil {
		sys.Close()
		t.Fatal(err)
	}
	for _, q := range sc.queries {
		if _, err := stream.RegisterStandingQuery(q.name, q.sql, sc.window, q.threshold, nil); err != nil {
			sys.Close()
			t.Fatalf("register %s: %v", q.name, err)
		}
	}
	return sys, stream
}

// ingestAll pushes the script's remaining frames in its batch size,
// stopping early if the stream dies, then drains. It returns the
// terminal error, if any.
func ingestAll(stream *Stream, sc standingScript) error {
	left := sc.frames - int(stream.Stats().Watermark)
	for left > 0 {
		n := sc.batch
		if n > left {
			n = left
		}
		if err := stream.Ingest(n); err != nil {
			return err
		}
		left -= n
	}
	return stream.Drain()
}

// standingDigest renders everything a resumed run must reproduce: per
// standing query (sorted by name) the checkpoint LSN, the sorted window
// counts and the alert set. Virtual-clock totals and delivery counters
// are deliberately excluded — a killed-and-resumed run pays for retries
// and re-executed deltas and may have delivered alerts before dying,
// but must converge to the same analytical state.
func standingDigest(stream *Stream) string {
	queries := stream.StandingQueries()
	slices.SortFunc(queries, func(a, b *StandingQuery) int { return strings.Compare(a.Name(), b.Name()) })
	var out strings.Builder
	for _, q := range queries {
		fmt.Fprintf(&out, "query %s: lsn=%d\n", q.Name(), q.LastLSN())
		wins := q.Windows()
		for _, w := range slices.Sorted(maps.Keys(wins)) {
			fmt.Fprintf(&out, "  window %d: %d\n", w, wins[w])
		}
		for _, a := range q.Alerts() {
			fmt.Fprintf(&out, "  alert %+v\n", a)
		}
	}
	return out.String()
}

// killRule builds the cell's crash rule: seed%3 picks the site family
// (append / checkpoint on the first query / notify on the first
// query), 1+seed/3 the arrival ordinal, and the seed also varies the
// torn-write length at write sites.
func killRule(sc standingScript, seed int) (site string, rule faults.Rule) {
	ord := 1 + seed/3
	rule = faults.Rule{Kind: faults.Crash, At: []int{ord}, ShortWrite: seed}
	switch seed % 3 {
	case 0:
		return faults.SiteIngestAppend("traffic"), rule
	case 1:
		return faults.SiteIngestCheckpoint(sc.queries[0].name), rule
	default:
		return faults.SiteIngestNotify(sc.queries[0].name), rule
	}
}

// runIngestBaseline runs the script uninterrupted and returns the
// final-state digest.
func runIngestBaseline(t *testing.T, sc standingScript) string {
	t.Helper()
	sys, stream := openScriptStream(t, sc, t.TempDir(), 1)
	defer sys.Close()
	if err := ingestAll(stream, sc); err != nil {
		t.Fatalf("baseline ingest: %v", err)
	}
	state := standingDigest(stream)
	closeOK(t, sys)
	return state
}

// killResume is the matrix runner of one chaos cell: ingest under the
// seed's kill rule until the stream dies (or finishes, for ordinals
// past the run's horizon), close, reopen the same directory,
// re-register and resume. The resumed state must match the
// uninterrupted baseline's; the digest is that state, the killed
// phase's fault log and both phases' virtual time, which must all be
// worker-invariant even though the resumed run's clock legitimately
// differs from the baseline's (it re-executes the in-flight increment
// and pays retry backoff).
func killResume(sc standingScript, seed int, baseline string) func(*testing.T, Config) string {
	return func(t *testing.T, cfg Config) string {
		t.Helper()
		dir := t.TempDir()
		sys, stream := openScriptStream(t, sc, dir, cfg.Workers)
		inj := faults.New(uint64(seed))
		inj.Rule(killRule(sc, seed))
		stream.injectFaults(inj)
		if err := ingestAll(stream, sc); err != nil && !faults.IsCrash(err) {
			t.Fatalf("killed phase: unexpected error: %v", err)
		}
		killed := stream.SimulatedTime()
		sys.Close() // a dead stream may surface its crash again; discard

		sys, stream = openScriptStream(t, sc, dir, cfg.Workers)
		defer sys.Close()
		if err := ingestAll(stream, sc); err != nil {
			t.Fatalf("resume ingest: %v", err)
		}
		resumed := stream.SimulatedTime()
		state := standingDigest(stream)
		closeOK(t, sys)
		same(t, fmt.Sprintf("seed=%d workers=%d resumed state against the uninterrupted run", seed, cfg.Workers), baseline, state)
		return state + faultsDigest(inj) + fmt.Sprintf("simtime killed: %d [%s]\nsimtime resumed: %d [%s]\n",
			killed.Total(), killed, resumed.Total(), resumed)
	}
}

// TestIngestChaos is the kill-point × seed × Workers matrix. Every
// resumed run must byte-match the uninterrupted baseline's final
// state, every cell must agree across Workers on state and fault
// schedule, and the matrix as a whole must actually inject faults.
func TestIngestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	injected := 0
	for _, sc := range loadStandingScripts(t) {
		t.Run(sc.name, func(t *testing.T) {
			baseline := runIngestBaseline(t, sc)
			for seed := 0; seed < ingestChaosSeeds; seed++ {
				injected += faultsIn(matrix(t, killResume(sc, seed, baseline), Config{Workers: 1}, atWorkers(Config{}, "", 2, 8)))
			}
		})
	}
	if injected == 0 {
		t.Error("chaos matrix never injected a fault")
	}
}
