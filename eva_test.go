package eva

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eva/internal/simclock"
)

// TestOpenRejectsNegativeWorkers: 0 uses every core and 1 runs
// serially; a negative worker count is a configuration error.
func TestOpenRejectsNegativeWorkers(t *testing.T) {
	if sys, err := Open(Config{Workers: -1}); err == nil {
		sys.Close()
		t.Fatal("Open accepted Workers -1")
	}
}

// TestOpenRejectsUnknownMode: a misspelt mode is a configuration error,
// not a silent run in EVA mode.
func TestOpenRejectsUnknownMode(t *testing.T) {
	sys, err := Open(Config{Mode: "funcahce"})
	if err == nil {
		sys.Close()
		t.Fatal("Open accepted Mode funcahce")
	}
	if !strings.Contains(err.Error(), `unknown Mode "funcahce"`) {
		t.Errorf("error %q does not name the mode", err)
	}
}

func TestOpenDefaultsAndTempDir(t *testing.T) {
	sys, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.cfg.Mode != ModeEVA {
		t.Errorf("default mode = %s", sys.cfg.Mode)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestLoadAndSelect(t *testing.T) {
	sys := openLoaded(t, Config{})
	res, err := sys.Exec("SELECT id, seconds FROM video WHERE id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 5 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
	if res.SimTime <= 0 || res.WallTime <= 0 {
		t.Error("timings not populated")
	}
	if !strings.Contains(res.PlanText, "Scan(video") {
		t.Errorf("plan text = %q", res.PlanText)
	}
}

// TestOpenIDBoundAtZero: an open lower bound at 0 starts the scan at
// frame 1, as every other open integral bound starts past its constant,
// so id > 0 reads and charges exactly what id >= 1 does.
func TestOpenIDBoundAtZero(t *testing.T) {
	run := func(where string) *Result {
		res, err := openLoaded(t, Config{}).Exec("SELECT id FROM video WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	open, closed := run("id > 0 AND id < 10"), run("id >= 1 AND id < 10")
	if open.Report.ScanLo != 1 || open.Report.ScanHi != 10 {
		t.Errorf("id > 0 AND id < 10 scans [%d, %d), want [1, 10)", open.Report.ScanLo, open.Report.ScanHi)
	}
	if open.Rows.Len() != 9 || closed.Rows.Len() != 9 {
		t.Errorf("rows = %d and %d, want 9", open.Rows.Len(), closed.Rows.Len())
	}
	if open.SimTime != closed.SimTime {
		t.Errorf("id > 0 charges %v, id >= 1 charges %v", open.SimTime, closed.SimTime)
	}
}

func TestExecScriptAndLoadStatement(t *testing.T) {
	sys, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.ExecScript(`
		LOAD VIDEO 'jackson' INTO v;
		SELECT id FROM v WHERE id < 3;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 3 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
}

func TestReuseAcrossQueries(t *testing.T) {
	sys := openLoaded(t, Config{})
	q := `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 400`
	first, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows.Len() != second.Rows.Len() {
		t.Fatalf("row mismatch: %d vs %d", first.Rows.Len(), second.Rows.Len())
	}
	if udfTime := second.Breakdown.Get(simclock.CatUDF); udfTime != 0 {
		t.Errorf("second run UDF time = %v, want 0", udfTime)
	}
	if second.SimTime >= first.SimTime {
		t.Errorf("reuse not faster: %v vs %v", second.SimTime, first.SimTime)
	}
	if hit := sys.HitPercentage(); hit < 49 || hit > 51 {
		t.Errorf("hit%% = %v, want ≈ 50", hit)
	}
	if sys.ViewFootprint() <= 0 {
		t.Error("views not materialized")
	}
}

func TestModesDiffer(t *testing.T) {
	q := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 300 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`
	type outcome struct {
		rows int
		hit  float64
	}
	results := map[SystemMode]outcome{}
	for _, mode := range []SystemMode{ModeNoReuse, ModeHashStash, ModeFunCache, ModeEVA} {
		sys := openLoaded(t, Config{Mode: mode})
		if _, err := sys.Exec(q); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		res, err := sys.Exec(q)
		if err != nil {
			t.Fatalf("%s second: %v", mode, err)
		}
		results[mode] = outcome{rows: res.Rows.Len(), hit: sys.HitPercentage()}
	}
	base := results[ModeNoReuse].rows
	for mode, o := range results {
		if o.rows != base {
			t.Errorf("%s returned %d rows, no-reuse returned %d", mode, o.rows, base)
		}
	}
	if results[ModeNoReuse].hit != 0 {
		t.Error("no-reuse should have 0 hit%")
	}
	if !(results[ModeEVA].hit > results[ModeHashStash].hit) {
		t.Errorf("EVA hit %v should exceed HashStash %v", results[ModeEVA].hit, results[ModeHashStash].hit)
	}
	if results[ModeFunCache].hit != results[ModeEVA].hit {
		t.Errorf("FunCache hit %v should equal EVA %v (Table 2)", results[ModeFunCache].hit, results[ModeEVA].hit)
	}
}

func TestCreateUDFAndCustomImpl(t *testing.T) {
	sys := openLoaded(t, Config{})
	_, err := sys.Exec(`CREATE UDF GrayNissan
		INPUT = (frame BYTES, bbox TEXT)
		OUTPUT = (graynissan_out BOOLEAN)
		IMPL = 'examples/monolithic.go'
		PROPERTIES = ('COST_MS' = '11')`)
	if err != nil {
		t.Fatal(err)
	}
	// Re-creating without OR REPLACE fails; with it succeeds.
	if _, err := sys.Exec(`CREATE UDF GrayNissan INPUT=(frame BYTES) OUTPUT=(x BOOLEAN) IMPL='y'`); err == nil {
		t.Error("duplicate CREATE UDF should fail")
	}
	if _, err := sys.Exec(`CREATE OR REPLACE UDF GrayNissan
		INPUT = (frame BYTES, bbox TEXT) OUTPUT = (graynissan_out BOOLEAN)
		IMPL = 'examples/monolithic.go' PROPERTIES = ('COST_MS' = '11')`); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64 // the worker pool calls the impl concurrently
	sys.RegisterScalarImpl("GrayNissan", func(args []Datum) (Datum, error) {
		calls.Add(1)
		return Datum{}, nil
	})
	res, err := sys.Exec(`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 200 AND GrayNissan(frame, bbox) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// The monolithic UDF's results are themselves reusable.
	before := calls.Load()
	if _, err := sys.Exec(`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 200 AND GrayNissan(frame, bbox) = TRUE`); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != before {
		t.Errorf("monolithic UDF re-evaluated %d times on identical query", n-before)
	}
}

// TestFramelessUDFKeyedOnID: a UDF called without a frame argument is
// keyed per frame too — its view's key columns include id, as every
// view's must — it answers as no-reuse mode does, and a second run of the
// same query evaluates nothing.
func TestFramelessUDFKeyedOnID(t *testing.T) {
	const q = `SELECT id, label, Boxy(bbox) FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 120 AND Boxy(bbox) = 'odd'`
	var answers [2]string
	for i, mode := range []SystemMode{ModeNoReuse, ModeEVA} {
		sys := openLoaded(t, Config{Mode: mode})
		if _, err := sys.Exec(`CREATE UDF Boxy INPUT = (bbox TEXT) OUTPUT = (boxy_out TEXT)
			IMPL = 'test' PROPERTIES = ('COST_MS' = '1')`); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64 // the worker pool calls the impl concurrently
		sys.RegisterScalarImpl("Boxy", func(args []Datum) (Datum, error) {
			calls.Add(1)
			return NewString([]string{"even", "odd"}[len(args[0].Str())%2]), nil
		})
		res, err := sys.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		answers[i] = Format(res.Rows)
		if calls.Load() == 0 || res.Rows.Len() == 0 {
			t.Fatalf("%s: %d calls, %d rows; the query exercises nothing", mode, calls.Load(), res.Rows.Len())
		}
		if mode != ModeEVA {
			continue
		}
		before := calls.Load()
		if res, err = sys.Exec(q); err != nil || Format(res.Rows) != answers[i] {
			t.Fatalf("second run: %v, answers changed: %v", err, Format(res.Rows) != answers[i])
		}
		if n := calls.Load(); n != before {
			t.Errorf("second run evaluated Boxy %d times", n-before)
		}
		views := 0
		for _, name := range sys.store.Views() {
			if v := sys.store.View(name); strings.Contains(name, "boxy") {
				views++
				if !slices.Contains(v.KeyColumns(), "id") {
					t.Errorf("view %s is keyed on %v", name, v.KeyColumns())
				}
			}
		}
		if views != 1 {
			t.Errorf("%d views of Boxy, want 1", views)
		}
	}
	if answers[0] != answers[1] {
		t.Errorf("EVA answered\n%s\nno-reuse\n%s", answers[1], answers[0])
	}
}

func TestShowStatements(t *testing.T) {
	sys := openLoaded(t, Config{})
	res, err := sys.Exec("SHOW TABLES")
	if err != nil || res.Rows.Len() != 1 {
		t.Errorf("SHOW TABLES: %v, %v", res, err)
	}
	res, err = sys.Exec("SHOW UDFS")
	if err != nil || res.Rows.Len() < 5 {
		t.Errorf("SHOW UDFS: %v, %v", res, err)
	}
	if _, err := sys.Exec("SHOW COWS"); err == nil {
		t.Error("SHOW COWS should error")
	}
	if _, err := sys.Exec("SHOW VIEWS"); err != nil {
		t.Error("SHOW VIEWS should work")
	}
}

func TestErrorSurfaces(t *testing.T) {
	sys := openLoaded(t, Config{})
	for _, sql := range []string{
		"SELECT bogus syntax here",
		"SELECT id FROM missing WHERE id < 5",
		"LOAD VIDEO 'not-a-dataset' INTO x",
	} {
		if _, err := sys.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should error", sql)
		}
	}
	if err := sys.LoadVideo("video", "jackson"); err == nil {
		t.Error("duplicate table load should error")
	}
}

func TestResetMetrics(t *testing.T) {
	sys := openLoaded(t, Config{})
	if _, err := sys.Exec("SELECT id FROM video WHERE id < 10"); err != nil {
		t.Fatal(err)
	}
	if sys.SimulatedTime() == 0 {
		t.Fatal("no time charged")
	}
	sys.ResetMetrics()
	if sys.SimulatedTime() != 0 || sys.HitPercentage() != 0 {
		t.Error("metrics not reset")
	}
}

func TestDatasetVirtualBytesAndHelpers(t *testing.T) {
	sys := openLoaded(t, Config{})
	n, err := sys.DatasetVirtualBytes("video")
	if err != nil || n != int64(14000)*600*400*3 {
		t.Errorf("virtual bytes = %d, %v", n, err)
	}
	if _, err := sys.DatasetVirtualBytes("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if len(Datasets()) != 4 {
		t.Errorf("datasets = %v", Datasets())
	}
	res, _ := sys.Exec("SELECT id FROM video WHERE id < 2")
	if out := Format(res.Rows); !strings.Contains(out, "(2 rows)") {
		t.Errorf("Format = %q", out)
	}
}

func TestRecyclerGraphAllOrNothing(t *testing.T) {
	sys := openLoaded(t, Config{Mode: ModeHashStash})
	if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 50"); err != nil {
		t.Fatal(err)
	}
	evals0 := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated
	if evals0 != 50 {
		t.Fatalf("first query evaluated %d frames", evals0)
	}
	// Covered: subset range is answered from the recycler graph.
	if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 30"); err != nil {
		t.Fatal(err)
	}
	if got := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated; got != evals0 {
		t.Errorf("covered query re-evaluated: %d -> %d", evals0, got)
	}
	// Not covered: HashStash re-runs the whole query — including the
	// already-materialized prefix (no difference computation).
	if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 80"); err != nil {
		t.Fatal(err)
	}
	if got := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated; got != evals0+80 {
		t.Errorf("uncovered query evaluated %d new frames, want 80 (all-or-nothing)", got-evals0)
	}

	// The half-open scan ranges [0, 50) and [50, 100) are recorded as the
	// closed 0..49 and 50..99, which touch: together they cover id < 100
	// and not id < 101, whose frame 100 no query has materialized.
	sys = openLoaded(t, Config{Mode: ModeHashStash})
	for _, c := range []struct {
		where string
		evals int
	}{
		{"id < 50", 50},
		{"id >= 50 AND id < 100", 50},
		{"id < 100", 0},
		{"id < 101", 101},
	} {
		before := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated
		if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE " + c.where); err != nil {
			t.Fatal(err)
		}
		if got := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated - before; got != c.evals {
			t.Errorf("WHERE %s evaluated %d frames, want %d", c.where, got, c.evals)
		}
	}
}

// TestHashStashSessionsShareCoverage: two sessions record their
// overlapping ranges in the one recycler graph at the same time (run
// under -race, this is the check on System.recMu). Once both finish, a
// query over the union of their ranges is covered and evaluates nothing;
// after DropViews it evaluates every frame again.
func TestHashStashSessionsShareCoverage(t *testing.T) {
	sys := openLoaded(t, Config{Mode: ModeHashStash})
	queries := [][]string{
		{"id < 40", "id >= 20 AND id < 60"},
		{"id >= 50 AND id < 90", "id >= 30 AND id < 70"},
	}
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, wheres := range queries {
		sess := sys.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, where := range wheres {
				if _, err := sess.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE " + where); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	union := "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 90"
	for _, want := range []int{0, 90} {
		before := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated
		if _, err := sys.Exec(union); err != nil {
			t.Fatal(err)
		}
		if got := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated - before; got != want {
			t.Errorf("union query evaluated %d frames, want %d", got, want)
		}
		if err := sys.DropViews(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimulatedBreakdownAccumulates(t *testing.T) {
	sys := openLoaded(t, Config{})
	if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 30"); err != nil {
		t.Fatal(err)
	}
	b := sys.SimulatedBreakdown()
	if b.Get(simclock.CatUDF) < 30*99*time.Millisecond/2 {
		t.Errorf("UDF time = %v, expected ≈ 30 frames × 99ms", b.Get(simclock.CatUDF))
	}
	if b.Get(simclock.CatReadVideo) == 0 {
		t.Error("no video read time charged")
	}
}
