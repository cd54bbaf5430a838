package core

import (
	"strings"
	"testing"

	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/storage"
	"eva/internal/vision"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(store, 0)
	if _, err := e.Catalog.RegisterVideo("video", vision.Jackson); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateVideo("video", vision.Jackson); err != nil {
		t.Fatal(err)
	}
	return e
}

func sel(t *testing.T, sql string) *parser.SelectStmt {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*parser.SelectStmt)
}

const pipelineSQL = `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
	WHERE id < 300 AND label = 'car'`

func TestEngineExecutePipeline(t *testing.T) {
	e := newEngine(t)
	out, err := e.Execute(sel(t, pipelineSQL), optimizer.EVAMode(), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows == nil || out.Plan == nil {
		t.Fatal("missing outcome pieces")
	}
	if out.Report.DetectorEval != vision.FasterRCNN50 {
		t.Errorf("detector = %s", out.Report.DetectorEval)
	}
	// Second execution is served from the views the first materialized.
	before := e.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	out2, err := e.Execute(sel(t, pipelineSQL), optimizer.EVAMode(), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	after := e.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if after.Evaluated != before.Evaluated {
		t.Errorf("second run evaluated %d new frames", after.Evaluated-before.Evaluated)
	}
	if out.Rows.Len() != out2.Rows.Len() {
		t.Errorf("rows differ: %d vs %d", out.Rows.Len(), out2.Rows.Len())
	}
}

func TestEngineExecuteTraced(t *testing.T) {
	e := newEngine(t)
	out, err := e.ExecuteTraced(sel(t, "SELECT id FROM video WHERE id < 20"), optimizer.EVAMode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("trace missing")
	}
	text := out.Trace.String()
	if !strings.Contains(text, "Scan(video") || !strings.Contains(text, "rows=20") {
		t.Errorf("trace = %q", text)
	}
	// Untraced execution has no trace.
	out, err = e.Execute(sel(t, "SELECT id FROM video WHERE id < 5"), optimizer.EVAMode(), ExecOpts{})
	if err != nil || out.Trace != nil {
		t.Errorf("untraced outcome: %v, %v", out.Trace, err)
	}
}

func TestEnginePlanIsDryRun(t *testing.T) {
	e := newEngine(t)
	res, err := e.Plan(sel(t, pipelineSQL), optimizer.EVAMode())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	// Nothing committed: the manager's entry (created by Lookup during
	// planning) still has p_u = FALSE.
	for _, entry := range e.Manager.Entries() {
		if !entry.Agg.IsFalse() {
			t.Errorf("Plan committed aggregated predicate for %s: %s", entry.Sig, entry.Agg)
		}
	}
}

func TestEngineReset(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Execute(sel(t, pipelineSQL), optimizer.EVAMode(), ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	if e.Store.TotalViewFootprint() == 0 || e.Clock.Total() == 0 {
		t.Fatal("nothing to reset")
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if e.Store.TotalViewFootprint() != 0 {
		t.Error("views survived reset")
	}
	if e.Clock.Total() != 0 || e.Runtime.HitPercentage() != 0 {
		t.Error("metrics survived reset")
	}
	if len(e.Manager.Entries()) != 0 {
		t.Error("aggregated predicates survived reset")
	}
}

func TestEngineErrorsPropagate(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Execute(sel(t, "SELECT id FROM ghost WHERE id < 5"), optimizer.EVAMode(), ExecOpts{}); err == nil {
		t.Error("unknown table should error")
	}
}
