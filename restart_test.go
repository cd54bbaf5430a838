package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/faults"
	"eva/internal/parser"
)

// Durable aggregated predicates (DESIGN.md "Durable aggregated
// predicates"): p_u lives in the view log it describes, is committed
// when a statement's STOREs have all succeeded, and is loaded back the
// first time its signature is planned after a restart. These tests pin
// the two consequences: a failed statement promises nothing, and a
// restart is invisible to reuse.

const poisonQuery = `SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
	WHERE id < 260 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray'`

const colorDetView = "udf_video_colordet_bbox_frame"

func evaluatedOf(sys *System, udfName string) int {
	return sys.UDFCounters()[udfName].Evaluated
}

// evaluatedTotal is the number of UDF invocations the system has
// evaluated, over all UDFs.
func evaluatedTotal(sys *System) (n int) {
	for _, st := range sys.UDFCounters() {
		n += st.Evaluated
	}
	return n
}

// TestFailedStatementDoesNotPoisonReuse: a statement that fails must
// leave the aggregated predicates where they were. Committed at plan
// time (as they once were), its gates made DIFF FALSE for every rerun,
// and Fig. 4's skip-STORE then dropped every later result: the view
// stayed empty and each rerun re-evaluated everything, for the rest of
// the process. Now the rerun after the failure stores what the
// uninterrupted run stores, and the one after that evaluates nothing.
func TestFailedStatementDoesNotPoisonReuse(t *testing.T) {
	failures := []struct {
		name string
		site string
		rule faults.Rule
		// session runs the failing statement in a client session of its
		// own, so the circuit breaker it trips stays with it.
		session bool
		reopen  bool // a simulated crash kills the view's handle, as it would the process
	}{
		// The eighth deadline check is the scan's before its second
		// batch: the first batch is evaluated and staged, the view not
		// yet stored.
		{"deadline", faults.SiteDeadline, faults.Rule{Kind: faults.Permanent, At: []int{8}, Limit: 1}, false, false},
		{"permanent-udf", faults.SiteUDF("ColorDet"), faults.Rule{Kind: faults.Permanent, Prob: 1}, true, false},
		{"view-write-crash", faults.SiteViewWrite(colorDetView), faults.Rule{Kind: faults.Crash, At: []int{1}, Limit: 1, ShortWrite: 11}, false, true},
	}
	for _, workers := range []int{1, 8} {
		healthy := openLoaded(t, Config{Workers: workers})
		if _, err := healthy.Exec(poisonQuery); err != nil {
			t.Fatal(err)
		}
		wantRows, wantEvals := healthy.ViewRows()[colorDetView], evaluatedOf(healthy, "colordet")
		if wantRows == 0 || wantEvals == 0 {
			t.Fatalf("healthy run stored %d rows with %d evaluations; the query does not exercise ColorDet", wantRows, wantEvals)
		}
		for _, f := range failures {
			t.Run(fmt.Sprintf("%s-w%d", f.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				sys := openLoaded(t, Config{Dir: dir, Workers: workers})
				inj := faults.New(7)
				inj.Rule(f.site, f.rule)
				var err error
				if f.session {
					failing := sys.NewSession()
					failing.InjectFaults(inj)
					_, err = failing.Exec(poisonQuery)
				} else {
					sys.InjectFaults(inj)
					_, err = sys.Exec(poisonQuery)
					sys.InjectFaults(nil)
				}
				if err == nil {
					t.Fatal("the faulted statement succeeded; the schedule is vacuous")
				}
				if f.reopen {
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					sys = openLoaded(t, Config{Dir: dir, Workers: workers})
				}
				if _, err := sys.Exec(poisonQuery); err != nil {
					t.Fatalf("rerun after the failure: %v", err)
				}
				if got := sys.ViewRows()[colorDetView]; got != wantRows {
					t.Errorf("view holds %d rows after one rerun, want the uninterrupted run's %d", got, wantRows)
				}
				before := evaluatedOf(sys, "colordet")
				if _, err := sys.Exec(poisonQuery); err != nil {
					t.Fatalf("second rerun: %v", err)
				}
				if evals := evaluatedOf(sys, "colordet") - before; evals != 0 {
					t.Errorf("second rerun evaluated ColorDet %d times, want 0: its results were not kept", evals)
				}
			})
		}
	}
}

// TestLimitDoesNotCommit: a LIMIT ends the plan before its applies see
// end of stream, so results they evaluated may never be stored; such a
// statement must promise nothing, or the unlimited query after it would
// skip the STORE of exactly those results.
func TestLimitDoesNotCommit(t *testing.T) {
	sys := openLoaded(t, Config{Workers: 1})
	if _, err := sys.Exec(poisonQuery + " LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	healthy := openLoaded(t, Config{Workers: 1})
	for _, s := range []*System{sys, healthy} {
		if _, err := s.Exec(poisonQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sys.ViewRows()[colorDetView], healthy.ViewRows()[colorDetView]; got != want {
		t.Errorf("view holds %d rows after LIMIT 1 then the full query, want %d", got, want)
	}
}

// statementDigest is everything a restart must leave unchanged about
// one statement: rows, the optimizer's report (INTER/DIFF/UNION atom
// counts, detector sources, order), virtual time and how many UDF
// invocations it evaluated.
func statementDigest(t *testing.T, sys *System, stmt parser.Statement) string {
	t.Helper()
	before := evaluatedTotal(sys)
	res, err := sys.ExecStmt(stmt)
	if err != nil {
		t.Fatalf("%T: %v", stmt, err)
	}
	var out strings.Builder
	writeResult(&out, res, everything)
	fmt.Fprintf(&out, "evaluated: %d\n", evaluatedTotal(sys)-before)
	return out.String()
}

// TestReopenDifferential: restart is invisible. Every testdata script
// runs once uninterrupted and once with a Close + Open between every
// pair of statements (the catalog is not durable, so the LOADs seen so
// far are replayed after each Open); statement by statement the two
// must agree on rows, Report.Preds, DetectorSources — Algorithm 2 sees
// the other models' views again — evaluations and virtual time.
func TestReopenDifferential(t *testing.T) {
	workerSet := []int{1, 2, 8}
	if testing.Short() {
		workerSet = []int{2}
	}
	for _, sc := range loadScripts(t, queryScripts) {
		stmts, err := parser.ParseAll(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSet {
			t.Run(fmt.Sprintf("%s-w%d", sc.name, w), func(t *testing.T) {
				whole := openAt(t, Config{Workers: w})
				dir := t.TempDir()
				var loads []parser.Statement
				for i, stmt := range stmts {
					want := statementDigest(t, whole, stmt)
					if _, isLoad := stmt.(*parser.LoadStmt); isLoad {
						loads = append(loads, stmt)
						continue
					}
					sys := openAt(t, Config{Dir: dir, Workers: w})
					for _, load := range loads {
						if _, err := sys.ExecStmt(load); err != nil {
							t.Fatal(err)
						}
					}
					same(t, fmt.Sprintf("statement %d after a restart", i+1), want, statementDigest(t, sys, stmt))
					closeOK(t, sys)
				}
			})
		}
	}
}

// TestPredicateKillPoints sweeps a simulated crash over every log write
// of one statement — each STORE's records and, after the last of them,
// each aggregated-predicate snapshot — at a spread of torn lengths (0
// cuts at the record boundary, the others inside the record). Whatever
// the kill point, the reopened system's predicates promise no more than
// its views hold: rerunning the statement brings the views to the
// uninterrupted run's contents, and running it once more evaluates
// nothing — every result the rerun computed was kept.
func TestPredicateKillPoints(t *testing.T) {
	healthy := openLoaded(t, Config{Workers: 1})
	if _, err := healthy.Exec(poisonQuery); err != nil {
		t.Fatal(err)
	}
	want := viewContentDigest(healthy)
	sawSnapshotKill := false
	for _, workers := range []int{1, 8} {
		for _, torn := range []int{0, 3, 11, 40} {
			for ordinal := 1; ; ordinal++ {
				dir := t.TempDir()
				sys := openLoaded(t, Config{Dir: dir, Workers: workers})
				inj := faults.New(uint64(ordinal))
				inj.Rule(faults.SiteViewWriteAny, faults.Rule{Kind: faults.Crash, At: []int{ordinal}, Limit: 1, ShortWrite: torn})
				sys.InjectFaults(inj)
				_, err := sys.Exec(poisonQuery)
				if inj.Injected() == 0 {
					if err != nil {
						t.Fatalf("no fault injected, yet: %v", err)
					}
					break // past the statement's last write
				}
				if err == nil {
					t.Fatalf("write %d crashed and the statement succeeded", ordinal)
				}
				if strings.Contains(err.Error(), "commit aggregated predicate") {
					sawSnapshotKill = true
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("w%d write %d torn at %d", workers, ordinal, torn)
				sys = openLoaded(t, Config{Dir: dir, Workers: workers})
				if _, err := sys.Exec(poisonQuery); err != nil {
					t.Fatalf("%s: rerun: %v", cell, err)
				}
				same(t, cell+": views after the rerun against the uninterrupted run", want, viewContentDigest(sys))
				before := evaluatedTotal(sys)
				if _, err := sys.Exec(poisonQuery); err != nil {
					t.Fatalf("%s: second rerun: %v", cell, err)
				}
				if n := evaluatedTotal(sys) - before; n != 0 {
					t.Errorf("%s: second rerun evaluated %d invocations, want 0", cell, n)
				}
				sys.Close()
			}
		}
	}
	if !sawSnapshotKill {
		t.Error("no kill point landed on an aggregated-predicate snapshot; the sweep is not covering the commit")
	}
}

// viewRecords returns the offsets of the records of the given kind in a
// view log (header, then [kind:1][count:4][payloadLen:4][payload][sum:8]).
func viewRecords(t *testing.T, data []byte, kind byte) []int {
	t.Helper()
	off := 5
	ncols := int(data[off])
	off++
	for i := 0; i < ncols; i++ {
		off += 2 + int(data[off+1])
	}
	nkeys := int(data[off])
	off++
	for i := 0; i < nkeys; i++ {
		off += 1 + int(data[off])
	}
	var at []int
	for off+17 <= len(data) {
		if data[off] == kind {
			at = append(at, off)
		}
		off += 9 + int(uint32(data[off+5])|uint32(data[off+6])<<8|uint32(data[off+7])<<16|uint32(data[off+8])<<24) + 8
	}
	if off != len(data) {
		t.Fatalf("view log does not end on a record boundary (%d of %d)", off, len(data))
	}
	return at
}

// TestQuarantineMeetsLoadedPredicate: a view that comes back from disk
// with a salvaged hole comes back with a predicate that still promises
// the lost rows. Before it is first served the predicate must shrink to
// what survived — for the id-keyed detector view exactly, for the
// (id, bbox)-keyed classifier view to FALSE — with the same repair task
// a scrub would queue; the session then answers what no-reuse answers,
// recomputes the lost keys and stores them again.
func TestQuarantineMeetsLoadedPredicate(t *testing.T) {
	queries := []string{
		`SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 100 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`,
		`SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`,
		`SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`,
	}
	const detView, typeView = "udf_video_fasterrcnnresnet50_frame", "udf_video_cartype_bbox_frame"
	session := func(sys *System) (out string) {
		for _, q := range queries {
			res, err := sys.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			out += Format(res.Rows)
		}
		return out
	}
	noReuse := openAt(t, Config{Mode: ModeNoReuse})
	if err := noReuse.LoadVideo("video", "jackson"); err != nil {
		t.Fatal(err)
	}
	want := session(noReuse)

	dir := t.TempDir()
	sys := openLoaded(t, Config{Dir: dir, Workers: 1})
	same(t, "rows before any corruption against no-reuse", want, session(sys))
	if t.Failed() {
		t.FailNow()
	}
	pristine := viewContentDigest(sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// One flipped payload byte in the second row record of each view:
	// the rows the second query stored are lost, the records around them
	// — the snapshots that promise those rows included — survive.
	for _, view := range []string{detView, typeView} {
		path := filepath.Join(dir, "views", view+".view")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := viewRecords(t, data, 1)
		if len(rows) != 3 || len(viewRecords(t, data, 3)) == 0 {
			t.Fatalf("%s: %d row records, %d snapshots; want one row record per query and a snapshot", view, len(rows), len(viewRecords(t, data, 3)))
		}
		flipByte(t, path, int64(rows[1]+9+4))
	}

	sys = openLoaded(t, Config{Dir: dir, Workers: 1})
	if p := sys.PendingRepairs(); len(p) != 0 {
		t.Fatalf("repairs pending before any signature was seen: %v", p)
	}
	same(t, "rows after reopening corrupt views against no-reuse", want, session(sys))
	if p := strings.Join(sys.PendingRepairs(), " "); !strings.Contains(p, detView) || !strings.Contains(p, typeView) {
		t.Errorf("pending repairs = %q, want both views queued at their predicate's first load", p)
	}
	evals := sys.UDFCounters()
	if n := evals["fasterrcnnresnet50"].Evaluated; n == 0 || n >= 300 {
		t.Errorf("detector evaluated %d frames, want only the lost ones (of 300)", n)
	}
	if evals["cartype"].Evaluated == 0 {
		t.Error("no classifier invocation was recomputed")
	}
	same(t, "view content once the lost keys are stored again", pristine, viewContentDigest(sys))
	if _, err := sys.Repair(); err != nil {
		t.Fatal(err)
	}
	if p := sys.PendingRepairs(); len(p) != 0 {
		t.Errorf("repairs still pending: %v", p)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// The shrunken and re-committed predicates are what the next process
	// loads: everything is served, nothing evaluated.
	sys = openLoaded(t, Config{Dir: dir, Workers: 1})
	same(t, "rows after the repair and a restart against no-reuse", want, session(sys))
	for name, st := range sys.UDFCounters() {
		if st.Evaluated != 0 {
			t.Errorf("%s evaluated %d invocations after the repair and a restart", name, st.Evaluated)
		}
	}
}
