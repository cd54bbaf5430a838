package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/types"
)

// populate fills dir with two views keyed as a detector's and a
// classifier's are — det on (id), cls on (bbox, id) — in three storing
// statements over frames 0..frames-1: [frames/3, frames), then [0,
// frames/3), then [frames/6, frames/2), batch by batch. Each frame has
// detObjects rows in det and clsObjects boxes of its statement's own in
// cls, but every sixteenth frame has none, a zero-row key of both. The
// second statement leaves det and cls a second run; cls takes a third
// from the last, whose det rows det has already. det ends with a
// predicate snapshot. The engine is closed cleanly, so each log with a
// chunk of rows gets its key index.
func populate(tb testing.TB, dir string, frames int64, detObjects, clsObjects int) {
	tb.Helper()
	e, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	det, err := e.CreateView("det", fuzzDetSchema, []string{"id"})
	if err != nil {
		tb.Fatal(err)
	}
	cls, err := e.CreateView("cls", fuzzClsSchema, []string{"bbox", "id"})
	if err != nil {
		tb.Fatal(err)
	}
	for s, span := range [][2]int64{{frames / 3, frames}, {0, frames / 3}, {frames / 6, frames / 2}} {
		for lo := span[0]; lo < span[1]; lo += 64 {
			d, c := types.NewBatch(fuzzDetSchema), types.NewBatch(fuzzClsSchema)
			var dz, cz [][]types.Datum
			for f := lo; f < min(lo+64, span[1]); f++ {
				if f%16 == 7 {
					dz = append(dz, []types.Datum{types.NewInt(f)})
					cz = append(cz, []types.Datum{types.NewString(fmt.Sprint("z", s)), types.NewInt(f)})
					continue
				}
				for range detObjects {
					d.MustAppendRow(types.NewInt(f), types.NewString("car"))
				}
				for j := range clsObjects {
					c.MustAppendRow(types.NewString(fmt.Sprintf("%d-%d", s, j)), types.NewInt(f), types.NewString("red"))
				}
			}
			if _, err := det.Append(d, dz); err != nil {
				tb.Fatal(err)
			}
			if _, err := cls.Append(c, cz); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := det.AppendPredicate([]byte("snapshot"), nil); err != nil {
		tb.Fatal(err)
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
}

// openViews opens the engine on dir and its two views.
func openViews(t *testing.T, dir string) (*Engine, *View, *View) {
	t.Helper()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	det, err := e.CreateView("det", fuzzDetSchema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := e.CreateView("cls", fuzzClsSchema, []string{"bbox", "id"})
	if err != nil {
		t.Fatal(err)
	}
	return e, det, cls
}

// renderView renders a view for comparison: what replayState renders, the
// processed count and the quarantine.
func renderView(v *View) string {
	return fmt.Sprintf("%s processed %d quarantine %+v", replayState(v, false), v.ProcessedCount(), v.Quarantine())
}

// stagedStates copies dir's view logs, and no key index, to a fresh
// directory and renders its views as a staged replay opens them.
func stagedStates(t *testing.T, dir string) [2]string {
	t.Helper()
	cp := t.TempDir()
	if err := os.MkdirAll(filepath.Join(cp, "views"), 0o755); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "views", "*.view"))
	for _, p := range logs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, "views", filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, det, cls := openViews(t, cp)
	defer e.Close()
	if det.indexed != 0 || cls.indexed != 0 {
		t.Fatal("a log without a key index opened through one")
	}
	return [2]string{renderView(det), renderView(cls)}
}

// countHashes makes hashKey count its calls: staging hashes each key it
// files, so a replay that stages no row hashes none.
func countHashes(t *testing.T, shift int) *int {
	calls, h := new(int), hashKey
	forceLayout(t, shift, func(ek []byte) uint64 { *calls++; return h(ek) })
	return calls
}

// TestKeyIndexReopenSkipsStaging: a cleanly closed view reopens through
// its key index to exactly the state a staged replay of its log builds —
// rows, runs, zero-row keys, top, twice, filed, predicate — and stages
// nothing: the only keys hashed are the classifier view's zero-row keys,
// whose hashes the index leaves to the open. Appends past the indexed
// prefix that no clean close indexed (a crash) are all the next open
// stages.
func TestKeyIndexReopenSkipsStaging(t *testing.T) {
	calls := countHashes(t, 2)
	dir := t.TempDir()
	populate(t, dir, 60, 2, 2)
	want := stagedStates(t, dir)

	*calls = 0
	e, det, cls := openViews(t, dir)
	if *calls != len(cls.rows.zero.keys) {
		t.Errorf("a clean reopen hashed %d keys, want the %d zero-row keys of cls", *calls, len(cls.rows.zero.keys))
	}
	for i, v := range []*View{det, cls} {
		if v.indexed == 0 || v.indexed != v.Footprint() {
			t.Errorf("%s opened through an index of %d of its %d bytes", v.name, v.indexed, v.Footprint())
		}
		if len(v.rows.runs) < 2 {
			t.Errorf("%s holds %d runs, want several", v.name, len(v.rows.runs))
		}
		same(t, v.name+" through its index", want[i], renderView(v))
	}

	// Two frames past the rest, one object each, and no clean close.
	indexed := [2]int64{det.indexed, cls.indexed}
	d, c := types.NewBatch(fuzzDetSchema), types.NewBatch(fuzzClsSchema)
	for f := int64(100); f < 102; f++ {
		d.MustAppendRow(types.NewInt(f), types.NewString("bus"))
		c.MustAppendRow(types.NewString("t"), types.NewInt(f), types.NewString("blue"))
	}
	if _, err := det.Append(d, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.Append(c, nil); err != nil {
		t.Fatal(err)
	}
	want = stagedStates(t, dir)
	*calls = 0
	e2, det2, cls2 := openViews(t, dir)
	if tail := 4 + len(cls2.rows.zero.keys); *calls != tail {
		t.Errorf("a reopen after appends past the index hashed %d keys, want the 4 appended and the %d zero-row keys", *calls, len(cls2.rows.zero.keys))
	}
	for i, v := range []*View{det2, cls2} {
		if v.indexed != indexed[i] {
			t.Errorf("%s opened through an index of %d bytes, want the %d indexed before the appends", v.name, v.indexed, indexed[i])
		}
		same(t, v.name+" through its index and a staged tail", want[i], renderView(v))
	}
	for _, e := range []*Engine{e2, e} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// same fails the test when two renderings differ, naming the first line
// that does.
func same(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := range max(len(wl), len(gl)) {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: line %d is\n%s\nwant\n%s", what, i+1, g, w)
		}
	}
}

// TestKeyIndexDamage: an index that does not describe its log — torn,
// rotted, another view's, or left behind by a compaction, an eviction, a
// torn tail cut below its prefix or a hole in it — is not used: the view
// opens to the staged replay's state and the file is gone. A log that
// only grew past the index still opens through it.
func TestKeyIndexDamage(t *testing.T) {
	forceLayout(t, 2, hashKey)
	for _, tc := range []struct {
		name string
		// damage works on dir, whose det view has the key index idx.
		damage func(t *testing.T, dir string, idx []byte)
		kept   bool
	}{
		{name: "truncated", damage: func(t *testing.T, dir string, idx []byte) {
			writeFile(t, indexPath(viewFile(dir, "det")), idx[:len(idx)-3])
		}},
		{name: "bit-flipped", damage: func(t *testing.T, dir string, idx []byte) {
			flipped := bytes.Clone(idx)
			flipped[len(flipped)/2] ^= 0x08
			writeFile(t, indexPath(viewFile(dir, "det")), flipped)
		}},
		{name: "another view's", damage: func(t *testing.T, dir string, _ []byte) {
			other, err := os.ReadFile(indexPath(viewFile(dir, "cls")))
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, indexPath(viewFile(dir, "det")), other)
		}},
		{name: "log appended past L", kept: true, damage: func(t *testing.T, dir string, _ []byte) {
			e, det, _ := openViews(t, dir)
			rows := types.NewBatch(fuzzDetSchema)
			rows.MustAppendRow(types.NewInt(90), types.NewString("van"))
			if _, err := det.Append(rows, [][]types.Datum{{types.NewInt(91)}}); err != nil {
				t.Fatal(err)
			}
			// No clean close: the engine is dropped as a crash leaves it.
			_ = e
		}},
		{name: "log compacted", damage: func(t *testing.T, dir string, idx []byte) {
			e, det, _ := openViews(t, dir)
			if _, err := det.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(indexPath(det.path)); !os.IsNotExist(err) {
				t.Fatalf("the compaction left the key index: %v", err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(indexPath(det.path)); !os.IsNotExist(err) {
				t.Fatalf("a close after the compaction indexed the view: %v", err)
			}
			writeFile(t, indexPath(det.path), idx)
		}},
		{name: "log evicted", damage: func(t *testing.T, dir string, idx []byte) {
			e, det, _ := openViews(t, dir)
			if _, err := det.evict(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(indexPath(det.path)); !os.IsNotExist(err) {
				t.Fatalf("the eviction left the key index: %v", err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			writeFile(t, indexPath(det.path), idx)
		}},
		{name: "torn tail cut below L", damage: func(t *testing.T, dir string, _ []byte) {
			path := viewFile(dir, "det")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "hole before L", damage: func(t *testing.T, dir string, _ []byte) {
			corruptRecord(t, viewFile(dir, "det"), 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			populate(t, dir, 60, 2, 2)
			idx, err := os.ReadFile(indexPath(viewFile(dir, "det")))
			if err != nil {
				t.Fatalf("the clean close wrote no key index: %v", err)
			}
			tc.damage(t, dir, idx)
			want := stagedStates(t, dir)
			e, det, cls := openViews(t, dir)
			defer e.Close()
			same(t, "det", want[0], renderView(det))
			same(t, "cls", want[1], renderView(cls))
			_, err = os.Stat(indexPath(det.path))
			if kept := err == nil; kept != tc.kept || kept != (det.indexed != 0) {
				t.Errorf("index file kept %v, opened through it %v; want %v", kept, det.indexed != 0, tc.kept)
			}
			if cls.indexed == 0 {
				t.Error("the undamaged view did not open through its index")
			}
		})
	}
}

func viewFile(dir, name string) string { return filepath.Join(dir, "views", name+".view") }

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKeyIndexWrittenWhenItQualifies: a clean close indexes a log with a
// chunk of rows, as a staged replay lists them, that is whole and has
// grown since its index — and no other: not a log below one chunk, a
// quarantined one, one whose index is current (a file removed by hand
// stays removed) or one a compaction rewrote. DropViews removes the
// index with its view.
func TestKeyIndexWrittenWhenItQualifies(t *testing.T) {
	forceLayout(t, 2, hashKey)
	indexed := func(v *View) bool {
		_, err := os.Stat(indexPath(v.path))
		return err == nil
	}
	dir := t.TempDir()
	populate(t, dir, 60, 2, 2)
	e, det, cls := openViews(t, dir)
	small, err := e.CreateView("small", fuzzDetSchema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := types.NewBatch(fuzzDetSchema)
	for f := range int64(3) {
		rows.MustAppendRow(types.NewInt(f), types.NewString("car"))
	}
	if _, err := small.Append(rows, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(indexPath(det.path)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if indexed(det) || !indexed(cls) || indexed(small) {
		t.Fatalf("after a close with no growth: det %v (removed by hand), cls %v, small (3 rows) %v", indexed(det), indexed(cls), indexed(small))
	}

	corruptRecord(t, cls.path, 1)
	e, _, cls = openViews(t, dir)
	if cls.Quarantine() == nil || indexed(cls) {
		t.Fatalf("a rotted log: quarantine %v, index kept %v", cls.Quarantine(), indexed(cls))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if indexed(cls) {
		t.Fatal("a quarantined log was indexed")
	}

	e, _, cls = openViews(t, dir)
	if _, err := cls.Compact(); err != nil {
		t.Fatal(err)
	}
	rows = types.NewBatch(fuzzClsSchema)
	rows.MustAppendRow(types.NewString("n"), types.NewInt(200), types.NewString("red"))
	if _, err := cls.Append(rows, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if indexed(cls) {
		t.Fatal("a close indexed a log the compaction rewrote under the runs")
	}
	e, _, cls = openViews(t, dir)
	rows = types.NewBatch(fuzzClsSchema)
	rows.MustAppendRow(types.NewString("n"), types.NewInt(201), types.NewString("red"))
	if _, err := cls.Append(rows, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !indexed(cls) {
		t.Fatal("a log the staged replay of its compacted generation listed, grown since, was not indexed")
	}

	e, _, cls = openViews(t, dir)
	if err := e.DropViews(); err != nil {
		t.Fatal(err)
	}
	if indexed(cls) {
		t.Fatal("DropViews left a key index")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzKeyIndex throws arbitrary key index bodies, sealed, at the open of
// a fixed log: data[0] picks the view — det on (id) or cls on (bbox,
// id) — and the rest is the body. No body panics the open or fails it.
// A body that installs leaves the view holding the rows, the predicate
// and the quarantine of a staged replay of the log, its runs, zero-row
// keys, top and twice as adopt requires them, and every row found by a
// probe of its key; the genuine body leaves the staged state itself. A
// body that does not install leaves the staged state and no file.
func FuzzKeyIndex(f *testing.F) {
	defer SetChunkShift(2)()
	src := f.TempDir()
	populate(f, src, 40, 2, 2)
	var logs, bodies [2][]byte
	for i, name := range []string{"det", "cls"} {
		var err error
		if logs[i], err = os.ReadFile(viewFile(src, name)); err != nil {
			f.Fatal(err)
		}
		idx, err := os.ReadFile(indexPath(viewFile(src, name)))
		if err != nil {
			f.Fatal(err)
		}
		bodies[i] = idx[preambleLen : len(idx)-recSumLen]
		f.Add(append([]byte{byte(i)}, bodies[i]...))
		f.Add(append([]byte{byte(i)}, bodies[i][:len(bodies[i])/2]...))
		f.Add(append([]byte{byte(1 - i)}, bodies[i]...))
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		forceLayout(t, 2, hashKey)
		which, body := int(data[0])%2, data[1:]
		name := []string{"det", "cls"}[which]
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "views"), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, viewFile(dir, name), logs[which])
		e, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		open := func() *View {
			v, err := e.CreateView(name, []types.Schema{fuzzDetSchema, fuzzClsSchema}[which], [][]string{{"id"}, {"bbox", "id"}}[which])
			if err != nil {
				t.Fatalf("open over a fuzzed key index: %v", err)
			}
			return v
		}
		staged := open()
		stagedState := renderView(staged)
		if err := e.DropViews(); err != nil {
			t.Fatal(err)
		}
		writeFile(t, viewFile(dir, name), logs[which])
		writeFile(t, indexPath(viewFile(dir, name)), sealFile(append(beginFile(nil, keyIndexFile), body...)))
		v := open()
		_, statErr := os.Stat(indexPath(v.path))
		if v.indexed == 0 {
			if statErr == nil {
				t.Fatal("an index that did not install was left beside the log")
			}
			same(t, "the staged fallback", stagedState, renderView(v))
			return
		}
		if bytes.Equal(body, bodies[which]) {
			same(t, "the genuine index", stagedState, renderView(v))
		}
		checkIndexed(t, v, staged)
	})
}

// checkIndexed holds a view opened through a key index to the invariants
// of its staged replay staged: the same rows, predicate and quarantine,
// runs and zero-row keys as adopt requires them, and each stored row
// found by a probe of its key among that key's rows.
func checkIndexed(t *testing.T, v, staged *View) {
	t.Helper()
	if v.Scan().String() != staged.Scan().String() || !bytes.Equal(v.pred, staged.pred) {
		t.Fatal("the installed index changed the rows or the predicate")
	}
	if fmt.Sprint(v.Quarantine()) != fmt.Sprint(staged.Quarantine()) {
		t.Fatal("the installed index changed the quarantine")
	}
	s := &v.rows
	check := newViewRows(v.schema, v.keyIdx)
	check.chunks, check.tail = s.chunks, s.tail
	ix := viewRows{runs: s.runs, zero: s.zero, top: s.top, twice: s.twice, filed: s.filed}
	if !check.adopt(&ix) || s.filed != s.len() {
		t.Fatal("the installed filing breaks adopt's invariants")
	}
	all := v.Scan()
	for r := range all.Len() {
		var pk ProbeKeys
		if err := pk.Reset(all.Slice(r, r+1), v.keyIdx); err != nil {
			t.Fatal(err)
		}
		var out Probed
		if err := v.Probe(&pk, []int{0}, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Hits) != 1 {
			t.Fatalf("stored row %d: its key is not processed", r)
		}
	}
}

// BenchmarkViewOpen opens a view shaped like a benchmark directory's — a
// classifier's on (bbox, id), ≈ 26 k rows in three runs, and a
// detector's on (id), ≈ 31 k rows in two — through its key index and by
// a staged replay (the index removed before each open). The close after
// each open is not timed.
func BenchmarkViewOpen(b *testing.B) {
	dir := b.TempDir()
	populate(b, dir, 4200, 8, 5)
	for _, view := range []struct {
		name   string
		schema types.Schema
		keys   []string
	}{{"cls", fuzzClsSchema, []string{"bbox", "id"}}, {"det", fuzzDetSchema, []string{"id"}}} {
		path := viewFile(dir, view.name)
		idx, err := os.ReadFile(indexPath(path))
		if err != nil {
			b.Fatal(err)
		}
		for _, indexed := range []bool{true, false} {
			b.Run(fmt.Sprintf("key=%s/index=%v", view.name, indexed), func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for range b.N {
					b.StopTimer()
					if err := os.Remove(indexPath(path)); err != nil {
						b.Fatal(err)
					}
					if indexed {
						if err := os.WriteFile(indexPath(path), idx, 0o644); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					e, err := Open(dir)
					if err != nil {
						b.Fatal(err)
					}
					v, err := e.CreateView(view.name, view.schema, view.keys)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if (v.indexed != 0) != indexed {
						b.Fatalf("opened through an index: %v, want %v", v.indexed != 0, indexed)
					}
					rows = v.Rows()
					if err := e.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}
