package eva

import (
	"strings"
	"sync"
	"testing"
)

func TestExplainDoesNotExecuteOrCommit(t *testing.T) {
	sys := openSystem(t, ModeEVA)
	res, err := sys.Exec(`EXPLAIN SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 50 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.PlanText, "CrossApply(FasterRCNNResnet50") ||
		!strings.Contains(res.PlanText, "ScalarApply(CarType") {
		t.Errorf("plan text:\n%s", res.PlanText)
	}
	if res.Rows.Len() == 0 {
		t.Error("EXPLAIN should return plan rows")
	}
	// Nothing ran and nothing was committed.
	if stats := sys.UDFCounters(); len(stats) != 0 {
		t.Errorf("EXPLAIN executed UDFs: %v", stats)
	}
	// A real run right after still treats the detector as cold: all 50
	// frames are evaluated (EXPLAIN didn't poison the aggregated
	// predicate into claiming coverage).
	if _, err := sys.Exec(`SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 50`); err != nil {
		t.Fatal(err)
	}
	if evals := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated; evals != 50 {
		t.Errorf("post-EXPLAIN run evaluated %d frames, want 50", evals)
	}
}

func TestExplainAnalyzeReportsOperatorStats(t *testing.T) {
	sys := openSystem(t, ModeEVA)
	res, err := sys.Exec(`EXPLAIN ANALYZE SELECT id, label FROM video
		CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 30 AND label = 'car'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.PlanText, "rows=") || !strings.Contains(res.PlanText, "Scan(video") {
		t.Errorf("analyze output:\n%s", res.PlanText)
	}
	// ANALYZE actually executed: the detector ran on all 30 frames.
	if evals := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated; evals != 30 {
		t.Errorf("EXPLAIN ANALYZE evaluated %d frames, want 30", evals)
	}
	// The scan row count appears in the trace.
	if !strings.Contains(res.PlanText, "rows=30") {
		t.Errorf("scan rows missing from trace:\n%s", res.PlanText)
	}
}

func TestDropViewsResetsReuse(t *testing.T) {
	sys := openSystem(t, ModeEVA)
	q := "SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 40"
	if _, err := sys.Exec(q); err != nil {
		t.Fatal(err)
	}
	if sys.ViewFootprint() == 0 {
		t.Fatal("no views materialized")
	}
	if _, err := sys.Exec("DROP VIEWS"); err != nil {
		t.Fatal(err)
	}
	if sys.ViewFootprint() != 0 {
		t.Error("views not dropped")
	}
	// The next run is cold again (aggregated predicates reset too).
	before := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated
	if _, err := sys.Exec(q); err != nil {
		t.Fatal(err)
	}
	after := sys.UDFCounters()["fasterrcnnresnet50"].Evaluated
	if after-before != 40 {
		t.Errorf("post-drop run evaluated %d frames, want 40", after-before)
	}
}

func TestConcurrentQueries(t *testing.T) {
	sys := openSystem(t, ModeEVA)
	// Warm a shared view so concurrent readers hit it.
	if _, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := i * 30
			q := "SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= " +
				itoa(lo) + " AND id < " + itoa(lo+60) + " AND label = 'car'"
			if _, err := sys.Exec(q); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All results must still agree with a fresh system.
	res, err := sys.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 270 AND label = 'car'")
	if err != nil {
		t.Fatal(err)
	}
	fresh := openSystem(t, ModeNoReuse)
	want, err := fresh.Exec("SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 270 AND label = 'car'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != want.Rows.Len() {
		t.Errorf("post-concurrency rows = %d, want %d", res.Rows.Len(), want.Rows.Len())
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestUDFFailureLeavesConsistentState injects a UDF failure mid-query
// and verifies the system recovers: the error surfaces, and a repaired
// re-run neither duplicates rows nor reuses poisoned results.
func TestUDFFailureLeavesConsistentState(t *testing.T) {
	sys := openSystem(t, ModeEVA)
	if _, err := sys.Exec(`CREATE UDF Flaky
		INPUT = (frame BYTES, bbox TEXT) OUTPUT = (flaky_out BOOLEAN)
		IMPL = 'test' PROPERTIES = ('COST_MS' = '3')`); err != nil {
		t.Fatal(err)
	}
	calls := 0
	fail := true
	sys.RegisterScalarImpl("Flaky", func(args []Datum) (Datum, error) {
		calls++
		if fail && calls > 5 {
			return Datum{}, errFlaky
		}
		return NewBool(true), nil
	})
	q := `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
	      WHERE id < 400 AND label = 'car' AND Flaky(frame, bbox) = TRUE`
	if _, err := sys.Exec(q); err == nil {
		t.Fatal("query with failing UDF should error")
	}
	// Repair the UDF and re-run: results are complete and keys that
	// succeeded before the failure are not re-evaluated twice into the
	// view (idempotent appends).
	fail = false
	res, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != again.Rows.Len() {
		t.Errorf("rows changed across re-runs: %d vs %d", res.Rows.Len(), again.Rows.Len())
	}
}

var errFlaky = &flakyError{}

type flakyError struct{}

func (*flakyError) Error() string { return "flaky UDF: injected failure" }

// TestComputedItemsAndTypedAggregates pins three statements that used
// to panic the process — the plan declared TEXT for a scalar call in
// the SELECT list and FLOAT for every MIN/MAX, and the executor
// appended through MustAppendRow — plus the typed error for SUM/AVG of
// a non-numeric argument, at every worker count, against the serial
// run's rows.
func TestComputedItemsAndTypedAggregates(t *testing.T) {
	const from = " FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 6"
	queries := []struct {
		sql   string
		kinds string // output schema kinds
	}{
		{"SELECT id, Area(bbox)" + from, "INTEGER FLOAT"},
		{"SELECT MIN(label), MAX(id), MIN(Area(bbox)), MAX(area)" + from, "TEXT INTEGER FLOAT FLOAT"},
		{"SELECT id, MAX(label), COUNT(*), AVG(area)" + from + " GROUP BY id", "INTEGER TEXT INTEGER FLOAT"},
	}
	want := make([]string, len(queries))
	for _, workers := range []int{1, 2, 8} {
		sys, err := Open(Config{Dir: t.TempDir(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadVideo("video", "medium-ua-detrac"); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, err := sys.Exec(q.sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q.sql, err)
			}
			var kinds []string
			for _, c := range res.Rows.Schema() {
				kinds = append(kinds, c.Kind.String())
			}
			if got := strings.Join(kinds, " "); got != q.kinds {
				t.Errorf("workers=%d %s: kinds %s, want %s", workers, q.sql, got, q.kinds)
			}
			if res.Rows.Len() == 0 {
				t.Errorf("workers=%d %s: no rows", workers, q.sql)
			}
			if got := Format(res.Rows); want[i] == "" {
				want[i] = got
			} else if got != want[i] {
				t.Errorf("workers=%d %s:\n%s\nserial run:\n%s", workers, q.sql, got, want[i])
			}
		}
		for _, q := range []string{"SELECT SUM(label)" + from, "SELECT id, AVG(bbox)" + from + " GROUP BY id"} {
			_, err := sys.Exec(q)
			if err == nil || !strings.Contains(err.Error(), "argument is TEXT, want a numeric kind") {
				t.Errorf("workers=%d %s: err = %v, want the non-numeric aggregate error", workers, q, err)
			}
		}
		sys.Close()
	}
}
