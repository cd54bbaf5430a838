package eva

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"eva/internal/catalog"
	"eva/internal/types"
)

// TestConcurrentQueriesStress drives the full stack from several
// goroutines at once: SELECTs with overlapping detector and scalar
// UDF predicates (so the manager's aggregated predicates are read and
// committed concurrently), direct view appends, and catalog
// statistics refreshes. Run under -race this exercises every lock the
// guarded-by analyzer tracks; it is the concurrency gate the ISSUE's
// verification story requires.
func TestConcurrentQueriesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sys := openLoaded(t, Config{})

	// Warm up one detector range so reuse paths (INTER plans) are hit
	// alongside first-run paths (DIFF plans) below.
	if _, err := sys.Exec(`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 40`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`,
		`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= 20 AND id < 70 AND label = 'car'`,
		`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 50 AND CarType(frame, bbox) = 'nissan'`,
		`SELECT COUNT(*) FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 80`,
		`SELECT id, seconds FROM video WHERE id < 100`,
	}

	var wg sync.WaitGroup

	// Query workers: every statement goes through parse → optimize
	// (manager reads) → execute (view appends, manager commits).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := sys.Exec(q); err != nil {
					t.Errorf("worker %d: %s: %v", w, q, err)
					return
				}
			}
		}(w)
	}

	// View appender: writes rows into a dedicated view while the
	// executors append to theirs and scan the engine's registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		schema := types.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "score", Kind: types.KindFloat},
		}
		v, err := sys.store.CreateView("stress_side_view", schema, []string{"id"})
		if err != nil {
			t.Errorf("create view: %v", err)
			return
		}
		for i := 0; i < 100; i++ {
			rows := types.NewBatch(schema)
			rows.MustAppendRow(types.NewInt(int64(i)), types.NewFloat(float64(i)/100))
			if _, err := v.Append(rows, nil); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			_ = v.Scan()
			_ = sys.store.TotalViewFootprint()
		}
	}()

	// Stats refresher: replaces table statistics while optimizer
	// threads compute selectivities from them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl, err := sys.cat().Table("video")
		if err != nil {
			t.Errorf("table: %v", err)
			return
		}
		for i := 0; i < 100; i++ {
			samples := make([]float64, 32)
			for j := range samples {
				samples[j] = float64((i + j) % 200)
			}
			tbl.Stats.SetNumeric("id", catalog.NewHistogram(0, 14000, 16, samples))
			tbl.Stats.SetCategorical("cartype(frame, bbox)", map[string]float64{
				"nissan": 0.2, "toyota": 0.3, "ford": 0.5,
			})
		}
	}()

	wg.Wait()

	// The serial answer must match a fresh system's: concurrency must
	// not corrupt materialized views or aggregated predicates.
	res, err := sys.Exec(`SELECT COUNT(*) AS n FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`)
	if err != nil {
		t.Fatal(err)
	}
	fresh := openLoaded(t, Config{Mode: ModeNoReuse})
	want, err := fresh.Exec(`SELECT COUNT(*) AS n FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows.At(0, 0).Int()
	exp := want.Rows.At(0, 0).Int()
	if got != exp {
		t.Fatalf("post-stress COUNT = %d, fresh system says %d", got, exp)
	}
}

// TestConcurrentMetricsReads runs the read-only introspection surface
// (reuse counters, footprints, simulated time) against live queries.
func TestConcurrentMetricsReads(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sys := openLoaded(t, Config{})

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := fmt.Sprintf(`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < %d`, 30+10*w+10*i)
				if _, err := sys.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = sys.HitPercentage()
			_ = sys.ViewFootprint()
			_ = sys.UDFCounters()
			_ = sys.SimulatedTime()
		}
	}()
	wg.Wait()
}

// TestCrossSessionReuseDeterminism: after session A populates a view,
// session B's refinement must reuse it exactly as a scripted serial
// run through the System path would — the same rows, the same
// optimizer reuse decisions, and the same system-wide hit percentage.
// Cross-session reuse is deterministic, not best-effort.
func TestCrossSessionReuseDeterminism(t *testing.T) {
	populate := `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 60`
	refine := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 40 AND label = 'car'`

	base := openLoaded(t, Config{})
	if _, err := base.Exec(populate); err != nil {
		t.Fatal(err)
	}
	want, err := base.Exec(refine)
	if err != nil {
		t.Fatal(err)
	}
	wantHit := base.HitPercentage()

	sys := openLoaded(t, Config{})
	a, b := sys.NewSession(), sys.NewSession()
	if _, err := a.Exec(populate); err != nil {
		t.Fatal(err)
	}
	got, err := b.Exec(refine)
	if err != nil {
		t.Fatal(err)
	}
	if Format(got.Rows) != Format(want.Rows) {
		t.Error("session B's rows diverge from the serial baseline")
	}
	var wantRep, gotRep strings.Builder
	writeReportDigest(&wantRep, want.Report)
	writeReportDigest(&gotRep, got.Report)
	if gotRep.String() != wantRep.String() {
		t.Errorf("session B's reuse decisions diverged:\nserial:\n%s\nsession:\n%s",
			wantRep.String(), gotRep.String())
	}
	if hit := sys.HitPercentage(); hit != wantHit {
		t.Errorf("hit%% after cross-session reuse = %v, serial baseline = %v", hit, wantHit)
	}
	if hit := sys.HitPercentage(); hit == 0 {
		t.Error("refinement recorded no reuse at all")
	}

	// The System is its own root session: for every testdata script,
	// sys.Exec on a fresh System and a lone client Session on another
	// must agree on rows, optimizer reports, per-statement virtual time
	// and the final hit percentage — the shared-view protocol a client
	// session runs is invisible when nobody shares.
	eachScript(t, func(t *testing.T, sc script) {
		root, lone := openAt(t, Config{}), openAt(t, Config{})
		want, _ := runStatements(t, root, sc.src, everything)
		got, _ := runStatements(t, lone.NewSession(), sc.src, everything)
		same(t, "lone session against System.Exec", want, got)
		if g, w := lone.HitPercentage(), root.HitPercentage(); g != w {
			t.Errorf("hit%% = %v through a session, %v through the System", g, w)
		}
		if g, w := lone.SimulatedTime(), root.SimulatedTime(); g != w {
			t.Errorf("global simtime = %v through a session, %v through the System", g, w)
		}
	})
}
