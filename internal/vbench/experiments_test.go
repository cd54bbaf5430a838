package vbench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/vision"
)

// smallCfg runs experiments at 1/20 scale for fast tests.
var smallCfg = ExpConfig{Scale: 0.05}

// text unwraps an experiment's printed table.
func text(rep Report, err error) (string, error) { return rep.Text, err }

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 21 {
		t.Fatalf("experiments = %d, want 21 (every table and figure, plus the parallel, chaos, server, ingest, alloc, scrub and evict extensions)", len(exps))
	}
	// The experiments whose Report carries Data: each names the committed
	// file that Data regenerates, and no other experiment names one.
	withData := map[string]bool{"parallel": true, "chaos": true, "server": true, "ingest": true, "alloc": true, "scrub": true, "evict": true}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		want := ""
		if withData[e.ID] {
			want = "BENCH_" + e.ID + ".json"
			if _, err := os.Stat(filepath.Join("..", "..", want)); err != nil {
				t.Errorf("%s: baseline not committed: %v", e.ID, err)
			}
		}
		if e.Baseline != want {
			t.Errorf("%s: Baseline = %q, want %q", e.ID, e.Baseline, want)
		}
		delete(withData, e.ID)
	}
	if len(withData) != 0 {
		t.Errorf("data experiments not registered: %v", withData)
	}
	if _, err := ExperimentByID("table2"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

// TestReportDataMatchesBaseline runs the experiments that are cheap and
// deterministic on any machine: Data is present exactly where the
// registry names a baseline, and encodes to the committed bytes.
func TestReportDataMatchesBaseline(t *testing.T) {
	for _, id := range []string{"table5", "chaos", "scrub", "evict"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(smallCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.Text == "" {
			t.Errorf("%s: empty text", id)
		}
		if (rep.Data != nil) != (e.Baseline != "") {
			t.Fatalf("%s: Data = %v with Baseline %q", id, rep.Data, e.Baseline)
		}
		if rep.Data == nil {
			continue
		}
		got, err := json.MarshalIndent(rep.Data, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", e.Baseline))
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s: regenerated data differs from the committed %s", id, e.Baseline)
		}
	}
}

func TestExpTable2SmallScale(t *testing.T) {
	out, err := text(ExpTable2(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vbench-low") || !strings.Contains(out, "vbench-high") {
		t.Errorf("output missing workloads:\n%s", out)
	}
}

func TestExpTable3And5(t *testing.T) {
	out, err := text(ExpTable3(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FasterRCNNResnet50", "CarType", "ColorDet", "Eq. 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q:\n%s", want, out)
		}
	}
	out, err = text(ExpTable5(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"YoloTiny", "37.9", "42.0", "120"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestExpTable4(t *testing.T) {
	out, err := text(ExpTable4(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "No-Reuse") || !strings.Contains(out, "EVA") {
		t.Errorf("table 4 output:\n%s", out)
	}
}

func TestExpFig5AndFig6(t *testing.T) {
	out, err := text(ExpFig5(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Speedup") {
		t.Errorf("fig5 output:\n%s", out)
	}
	out, err = text(ExpFig6(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Q8-wide") || !strings.Contains(out, "overhead sources") {
		t.Errorf("fig6 output:\n%s", out)
	}
}

func TestFig7PointsShape(t *testing.T) {
	ds := smallCfg.scale(mediumForTests())
	points, err := Fig7Points(HighWorkload(ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no fig7 points")
	}
	// The defining property: EVA's reducer never needs more atoms than
	// the QM baseline on the union predicates of the refinement
	// sequence, and by the last step the baseline has grown larger for
	// the polyadic CarType predicate.
	var evaLast, simLast int
	for _, p := range points {
		if p.UDF == "cartype" && p.Kind == "union" {
			evaLast, simLast = p.EVAAtoms, p.SimplifyAtoms
		}
	}
	if evaLast == 0 {
		t.Fatal("no cartype union points")
	}
	if evaLast > simLast {
		t.Errorf("EVA atoms %d exceed simplify %d on final cartype union", evaLast, simLast)
	}
	if simLast <= 2 {
		t.Errorf("simplify final atoms = %d; expected growth over refinements", simLast)
	}
}

func TestExpFig8Fig9(t *testing.T) {
	out, err := text(ExpFig8(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Perm") || !strings.Contains(out, "convergence") {
		t.Errorf("fig8 output:\n%s", out)
	}
	rows, err := Fig9Rows(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no multi-UDF queries found for fig9")
	}
	// At least one query should benefit from materialization-aware
	// reordering across the permutations.
	best := 0.0
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if best < 1.2 {
		t.Errorf("best reordering speedup = %.2f, want > 1.2", best)
	}
}

func TestExpFig10Through12(t *testing.T) {
	out, err := text(ExpFig10(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MinCost") {
		t.Errorf("fig10 output:\n%s", out)
	}
	out, err = text(ExpFig11(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vbench-high") {
		t.Errorf("fig11 output:\n%s", out)
	}
	out, err = text(ExpFig12(ExpConfig{Scale: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "short-ua-detrac") || !strings.Contains(out, "long-ua-detrac") {
		t.Errorf("fig12 output:\n%s", out)
	}
}

func TestExpFiltersAndStorage(t *testing.T) {
	out, err := text(ExpFilters(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EVA+Filter") {
		t.Errorf("filters output:\n%s", out)
	}
	out, err = text(ExpStorage(smallCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "overhead") {
		t.Errorf("storage output:\n%s", out)
	}
}

func mediumForTests() vision.Dataset { return vision.MediumUADetrac }
