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

const scalarSQL = `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
	WHERE id < 260 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`

// TestReuseSurvivesEngineRestart: the wiring that makes aggregated
// predicates durable lives in New and Execute, so an engine assembled by
// hand over a populated directory (storage.Open + core.New, what the
// repo benchmark's traced pass does) reuses what the previous process
// materialized: the rerun evaluates nothing, writes nothing, and plans
// against the same predicates.
func TestReuseSurvivesEngineRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		store, err := storage.Open(dir)
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
	first := open()
	out, err := first.Execute(sel(t, scalarSQL), optimizer.EVAMode(), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := first.Plan(sel(t, scalarSQL), optimizer.EVAMode())
	if err != nil {
		t.Fatal(err)
	}
	footprint := first.Store.TotalViewFootprint()
	if err := first.Store.Close(); err != nil {
		t.Fatal(err)
	}

	second := open()
	out2, err := second.Execute(sel(t, scalarSQL), optimizer.EVAMode(), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Store.Close()
	if out2.Rows.Len() != out.Rows.Len() {
		t.Errorf("rows after restart: %d, want %d", out2.Rows.Len(), out.Rows.Len())
	}
	for name, st := range second.Runtime.CounterSnapshot() {
		if st.Evaluated != 0 {
			t.Errorf("%s evaluated %d invocations the views already hold", name, st.Evaluated)
		}
	}
	if got := second.Store.TotalViewFootprint(); got != footprint {
		t.Errorf("view logs grew %d → %d bytes with nothing new to store", footprint, got)
	}
	for sig, want := range warm.Report.Preds {
		if got := out2.Report.Preds[sig]; got != want {
			t.Errorf("%s planned as %+v after restart, %+v before it", sig, got, want)
		}
	}
}

// TestFailedAttemptWithdrawsItsClaims: claims last one plan attempt.
// A statement that fails leaves planning exactly where it was.
func TestFailedAttemptWithdrawsItsClaims(t *testing.T) {
	e := newEngine(t)
	e.Deadline = 1 // one virtual nanosecond: the first operator check fails
	if _, err := e.Execute(sel(t, scalarSQL), optimizer.EVAMode(), ExecOpts{}); err == nil {
		t.Fatal("the statement beat a 1ns deadline")
	}
	for _, entry := range e.Manager.Entries() {
		if !entry.Agg.IsFalse() {
			t.Errorf("failed statement left %s = %s", entry.Sig, entry.Agg)
		}
	}
}
