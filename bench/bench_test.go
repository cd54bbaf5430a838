package main

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"eva/internal/exec"
)

// The tests run every workload at a sixtieth of the dataset size, for
// a few hundredths of a second and two sessions, so that the whole file
// takes about a second: go test ./... runs it beside the root package's
// concurrency tests, which are sensitive to a busy neighbour.
func testConfig(t *testing.T, seed uint64) config {
	return config{Seed: seed, Seconds: 0.02, Scale: 0.015, SetupReps: 1, MinSessions: 2, OutDir: t.TempDir()}
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires run to emit exactly the metrics of want, once
// each, under the unit BENCHMARK.json gives.
func checkMetrics(t *testing.T, run *runResult, want []metricSpec) {
	t.Helper()
	if run.Failed != 0 || run.Attempted == 0 {
		t.Fatalf("%s: %d attempted, %d failed: %v", run.Workload, run.Attempted, run.Failed, run.Errors)
	}
	seen := map[string]string{}
	for _, m := range run.Metrics {
		if _, dup := seen[m.Name]; dup {
			t.Errorf("%s: metric %s emitted twice", run.Workload, m.Name)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", run.Workload, m.Name)
		}
		seen[m.Name] = m.Unit
	}
	for _, w := range want {
		unit, ok := seen[w.Name]
		if !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json not emitted", run.Workload, w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", run.Workload, w.Name, unit, w.Unit)
		}
		delete(seen, w.Name)
	}
	for name := range seen {
		t.Errorf("%s: metric %s emitted but not in BENCHMARK.json", run.Workload, name)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	tr := newTracer()
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.Name || spec.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.Name, wl.Why)
		}
		cfg := testConfig(t, 7)
		e2e, err := runEndToEnd(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, e2e, spec.EndToEnd)
		for _, m := range e2e.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", wl.Name, m.Name, m.Value)
			}
		}
		// runTraced fails on a negative operator self time.
		traced, err := runTraced(cfg, wl, tr)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, traced, spec.PerLayer)
		shed, _ := traced.value("server.shed")
		if shed.Value != 0 {
			t.Errorf("%s: %v queries shed", wl.Name, shed.Value)
		}
		hit, _ := traced.value("udf.hit_pct")
		growth, _ := traced.value("storage.view_disk_growth_kb")
		switch wl.Name {
		case "high-noreuse":
			if hit.Value != 0 {
				t.Errorf("high-noreuse: udf.hit_pct = %v, want 0", hit.Value)
			}
		case "high-warm", "sparse-warm", "sessions-2":
			if hit.Value != 100 || growth.Value != 0 {
				t.Errorf("%s: udf.hit_pct = %v, view growth = %v KiB; a warm workload reuses everything and writes nothing", wl.Name, hit.Value, growth.Value)
			}
		}
	}
	if len(tr.spans) == 0 {
		t.Fatal("traced passes recorded no spans")
	}
	ids := map[int64]span{}
	for _, s := range tr.spans {
		ids[s.ID] = s
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || p.Query != s.Query {
			t.Fatalf("span %d (%s): parent %d missing or of another query", s.ID, s.Name, s.Parent)
		}
	}
}

// A p90 needs ten samples beyond it: with the command's own minimum
// the shortest run still pools at least a hundred queries.
func TestPercentilesHaveEnoughSamples(t *testing.T) {
	wl, _ := workloadByName("sparse-warm")
	cfg := testConfig(t, 7)
	cfg.MinSessions = minSessions
	r, err := runEndToEnd(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"query_wall_p50_ms", "query_wall_p90_ms", "queries_per_s"} {
		m, _ := r.value(name)
		if m.Samples < 100 {
			t.Errorf("%s over %d samples, want at least 100", name, m.Samples)
		}
		// Without a spread -check could never call a pooled figure
		// unresolved.
		if m.Spread <= 0 {
			t.Errorf("%s has no per-session spread", name)
		}
	}
}

func TestSeedDeterminesInputsAndOutputs(t *testing.T) {
	wl, _ := workloadByName("sparse-warm")
	run := func(seed uint64) *runResult {
		r, err := runEndToEnd(testConfig(t, seed), wl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, c := run(7), run(7), run(8)
	if !reflect.DeepEqual(a.SQL, b.SQL) || !reflect.DeepEqual(a.Digests, b.Digests) {
		t.Error("same seed gave different SQL or digests")
	}
	simA, _ := a.value("sim_session_s")
	simB, _ := b.value("sim_session_s")
	if simA.Value != simB.Value {
		t.Errorf("same seed gave sim_session_s %v and %v", simA.Value, simB.Value)
	}
	if reflect.DeepEqual(a.SQL, c.SQL) {
		t.Error("different seeds gave the same SQL")
	}
}

func TestFoldStatsSelfTime(t *testing.T) {
	// Project → ScalarApply → Filter → Scan, inclusive walls.
	stats := []exec.OperatorStat{
		{Depth: 0, Describe: "Project(id AS id)", Rows: 5, Wall: 100 * time.Millisecond},
		{Depth: 1, Describe: "ScalarApply(CarType)", Rows: 10, Wall: 90 * time.Millisecond},
		{Depth: 2, Describe: "Filter(label = 'car')", Rows: 40, Wall: 30 * time.Millisecond},
		{Depth: 3, Describe: "Scan(video, id ∈ [0, 10))", Rows: 80, Wall: 20 * time.Millisecond},
	}
	var acc opSelf
	batch := []span{{ID: 1, Query: 1, Name: "execute"}}
	batch = foldStats(stats, 105*time.Millisecond, batch, 1, &acc)
	want := opSelf{
		scan: 20 * time.Millisecond, filter: 10 * time.Millisecond, apply: 60 * time.Millisecond, project: 10 * time.Millisecond,
		overhead: 5 * time.Millisecond, applyIn: 40, examined: 10 + 40 + 80, results: 5,
	}
	if acc != want {
		t.Errorf("self times %+v, want %+v", acc, want)
	}
	for i, wantParent := range []int64{1, 2, 3, 4} {
		if got := batch[i+1].Parent; got != wantParent {
			t.Errorf("operator %d: parent span %d, want %d", i, got, wantParent)
		}
	}
	stats[1].Wall = 10 * time.Millisecond // less than its child
	foldStats(stats, 105*time.Millisecond, batch[:1], 1, &acc)
	if !acc.negative {
		t.Error("a child wall above its parent's was not flagged")
	}
}
