package storage

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"eva/internal/types"
)

// mergeFuzz is one FuzzMergeMatchesProbe run: an engine with two views
// keyed on id — a detector's (id alone) and a classifier's (bbox, id), the
// order the planner gives a scalar UDF's key — driven by the fuzz input,
// each beside its naive model (keyOracle).
type mergeFuzz struct {
	t      *testing.T
	data   []byte
	dir    string
	e      *Engine
	det    *View
	cls    *View
	oracle [2]keyOracle // det's and cls's
	next   [3]int64     // each interleaved writer's next id
	serial int
	folded [2]int // checks that found det and cls with a folded run
	zeros  int    // checks that found cls with a zero-row key
}

var (
	fuzzDetSchema = types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	)
	fuzzClsSchema = types.MustSchema(
		types.Column{Name: "bbox", Kind: types.KindString},
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	)
	fuzzBoxes = []string{"a", "b", "c"}
)

// byte returns the next input byte, 0 once the input is spent.
func (m *mergeFuzz) byte() int {
	if len(m.data) == 0 {
		return 0
	}
	b := m.data[0]
	m.data = m.data[1:]
	return int(b)
}

func (m *mergeFuzz) open() {
	var err error
	if m.e, err = Open(m.dir); err != nil {
		m.t.Fatal(err)
	}
	if m.det, err = m.e.CreateView("det", fuzzDetSchema, []string{"id"}); err != nil {
		m.t.Fatal(err)
	}
	if m.cls, err = m.e.CreateView("cls", fuzzClsSchema, []string{"bbox", "id"}); err != nil {
		m.t.Fatal(err)
	}
}

// clsKey returns the AppendKey encoding of a classifier key.
func clsKey(box string, id int64) string {
	return string(AppendKey(nil, []types.Datum{types.NewString(box), types.NewInt(id)}))
}

// appendFrom appends a few frames to both views, from id on: each frame
// has no rows (a processed key), or one to three rows whose boxes may
// repeat — a key's rows then come apart inside one append.
func (m *mergeFuzz) appendFrom(id int64, frames int) int64 {
	det, cls := types.NewBatch(fuzzDetSchema), types.NewBatch(fuzzClsSchema)
	var detZero, clsZero [][]types.Datum
	var detRows, clsRows, labels, detZeroKeys, clsZeroKeys []string
	for f := 0; f < frames; f++ {
		rows := m.byte() % 4
		if rows == 0 {
			detZero = append(detZero, []types.Datum{types.NewInt(id)})
			detZeroKeys = append(detZeroKeys, idKey(id))
			if m.byte()%4 == 0 {
				// A key of more than the id processed with no rows.
				clsZero = append(clsZero, []types.Datum{types.NewString("z"), types.NewInt(id)})
				clsZeroKeys = append(clsZeroKeys, clsKey("z", id))
			}
		}
		for r := 0; r < rows; r++ {
			m.serial++
			label := fmt.Sprint("r", m.serial)
			box := fuzzBoxes[m.byte()%len(fuzzBoxes)]
			det.MustAppendRow(types.NewInt(id), types.NewString(label))
			cls.MustAppendRow(types.NewString(box), types.NewInt(id), types.NewString(label))
			detRows, clsRows, labels = append(detRows, idKey(id)), append(clsRows, clsKey(box, id)), append(labels, label)
		}
		id += 1 + int64(m.byte()%3/2)
	}
	if _, err := m.det.Append(det, detZero); err != nil {
		m.t.Fatal(err)
	}
	if _, err := m.cls.Append(cls, clsZero); err != nil {
		m.t.Fatal(err)
	}
	m.oracle[0].append(detRows, labels, detZeroKeys)
	m.oracle[1].append(clsRows, labels, clsZeroKeys)
	return id
}

// salvage flips one record of view i's log and has Verify drop it. The
// records before the first hole an earlier salvage left are the first of
// the oracle's too; one of them is flipped.
func (m *mergeFuzz) salvage(i int) {
	v := []*View{m.det, m.cls}[i]
	data, err := os.ReadFile(v.path)
	if err != nil {
		m.t.Fatal(err)
	}
	records := 0
	for off := headerEnd(m.t, data); ; records++ {
		end, ok := recordBounds(data, off, viewLog.kinds)
		if !ok {
			break
		}
		off = end
	}
	if records > len(m.oracle[i].records) {
		m.t.Fatalf("view %s holds %d records, its oracle %d", v.name, records, len(m.oracle[i].records))
	}
	if records == 0 {
		return
	}
	lost := m.byte() % records
	corruptRecord(m.t, v.path, lost)
	if _, err := v.Verify(); err != nil {
		m.t.Fatal(err)
	}
	o := &m.oracle[i]
	o.records = append(o.records[:lost:lost], o.records[lost+1:]...)
}

// check probes both views with a batch of non-decreasing ids drawn from
// the input, duplicates included, and holds them to their oracles.
func (m *mergeFuzz) check() {
	n := 1 + m.byte()%24
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(m.byte() % 160)
	}
	slices.Sort(ids)
	sel := make([]int, 0, n)
	for i := range ids {
		if m.byte()%4 > 0 {
			sel = append(sel, i)
		}
	}
	checkProbe(m.t, m.det, m.oracle[0].fold(), idKeys(ids...), sel, &Probed{})
	cls := types.NewBatch(types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "bbox", Kind: types.KindString}})
	for _, id := range ids {
		box := "z"
		if b := m.byte() % 4; b < len(fuzzBoxes) {
			box = fuzzBoxes[b]
		}
		cls.MustAppendRow(types.NewInt(id), types.NewString(box))
	}
	var pk ProbeKeys
	if err := pk.Reset(cls, []int{1, 0}); err != nil {
		m.t.Fatal(err)
	}
	checkProbe(m.t, m.cls, m.oracle[1].fold(), &pk, sel, &Probed{})
	for i, v := range []*View{m.det, m.cls} {
		if want := len(m.oracle[i].fold()); v.ProcessedCount() != want {
			m.t.Fatalf("view %s: ProcessedCount %d, oracle %d", v.name, v.ProcessedCount(), want)
		}
		if len(v.rows.runs) > foldRuns {
			m.t.Fatalf("view %s keeps %d runs, past the bound %d", v.name, len(v.rows.runs), foldRuns)
		}
		// A folded run lists keys of rows that interleaved writers stored
		// out of id order.
		if slices.ContainsFunc(v.rows.runs, func(keys []viewKey) bool {
			return !slices.IsSortedFunc(keys, func(a, b viewKey) int { return cmp.Compare(a.at, b.at) })
		}) {
			m.folded[i]++
		}
	}
	if len(m.cls.rows.zero.keys) > 0 {
		m.zeros++
	}
}

// run drives the views through the input's operations, checking after
// each: appends from three interleaved writers (each writer's frames
// ascend, so the views hold several runs, and fold past foldRuns), an
// append from an earlier id (a run of its own), a reopen (replay), an
// eviction (the log's rewrite to an empty generation), a compaction and
// a salvaged record.
func (m *mergeFuzz) run() {
	m.open()
	for w := range m.next {
		m.next[w] = int64(40 * w)
	}
	for op := 0; op < 24 && len(m.data) > 0; op++ {
		switch c := m.byte() % 16; {
		case c < 9:
			w := c % 3
			m.next[w] = m.appendFrom(m.next[w], 1+m.byte()%6)
		case c < 11:
			m.appendFrom(int64(m.byte()%160), 1+m.byte()%4)
		case c == 11:
			if err := m.e.Close(); err != nil {
				m.t.Fatal(err)
			}
			m.open()
		case c == 12:
			for i, v := range []*View{m.det, m.cls} {
				if _, err := v.evict(); err != nil {
					m.t.Fatal(err)
				}
				m.oracle[i].records = nil
			}
		case c == 13:
			if _, err := m.det.Compact(); err != nil {
				m.t.Fatal(err)
			}
			m.oracle[0].compact()
		default:
			m.salvage(c % 2)
		}
		m.check()
	}
	if err := m.e.Close(); err != nil {
		m.t.Fatal(err)
	}
}

// FuzzMergeMatchesProbe holds the probe to a naive oracle: after every
// append, replay, eviction rewrite, compaction and salvage of two views
// keyed on id, on chunks of two to eight rows, a probe of sorted ids must
// find exactly the keys the oracle holds processed, each with the (chunk,
// row) pairs of its rows in order and the hash of its encoding.
func FuzzMergeMatchesProbe(f *testing.F) {
	for _, seed := range mergeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		forceLayout(t, 1+int(data[0])%3, hashKey)
		m := &mergeFuzz{t: t, data: data[1:], dir: t.TempDir()}
		m.run()
	})
}

// mergeSeeds start the fuzzer from logs of several ascending runs:
// appends by each writer, out-of-order appends, a reopen, a compaction
// and a salvage. The last has the writers take turns, last first, until
// both views fold, with zero-row keys of both shapes in every turn.
var mergeSeeds = [][]byte{
	{1, 0, 5, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 2, 0, 5, 1, 2, 7, 40, 41, 42, 100, 120, 1, 4, 2, 2, 2, 1, 2, 3, 9, 3, 9, 11, 8, 5, 6, 7, 40, 44, 13, 6, 1, 41, 60},
	{2, 4, 6, 3, 1, 3, 2, 1, 0, 0, 3, 3, 3, 3, 3, 3, 7, 20, 30, 40, 50, 60, 70, 80, 9, 10, 3, 1, 1, 2, 1, 3, 4, 0, 1, 2, 3, 14, 1, 6, 5, 6, 7, 8, 15, 1, 12, 5, 1, 2, 3, 4},
	{0, 1, 6, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0, 23, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 2, 6, 1, 2, 1, 2, 1, 2, 11, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	{1, 2, 1, 0, 0, 0, 2, 0, 1, 0, 3, 80, 81, 81, 0, 1, 1, 1, 1, 0, 1, 3, 2, 1, 1, 0, 0, 0, 2, 0, 1, 0, 3, 40, 41, 41, 80, 1, 1, 1, 1, 0, 1, 3, 2, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 1, 1, 40, 1, 1, 1, 1, 0, 1, 3, 2, 2, 1, 0, 0, 0, 2, 0, 1, 0, 3, 82, 83, 83, 2, 1, 1, 1, 1, 0, 1, 3, 2, 1, 1, 0, 0, 0, 2, 0, 1, 0, 3, 42, 43, 43, 82, 1, 1, 1, 1, 0, 1, 3, 2, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3, 2, 3, 3, 42, 1, 1, 1, 1, 0, 1, 3, 2, 2, 1, 0, 0, 0, 2, 0, 1, 0, 3, 84, 85, 85, 4, 1, 1, 1, 1, 0, 1, 3, 2, 1, 1, 0, 0, 0, 2, 0, 1, 0, 3, 44, 45, 45, 84, 1, 1, 1, 1, 0, 1, 3, 2, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3, 4, 5, 5, 44, 1, 1, 1, 1, 0, 1, 3, 2, 2, 1, 0, 0, 0, 2, 0, 1, 0, 3, 86, 87, 87, 6, 1, 1, 1, 1, 0, 1, 3, 2, 1, 1, 0, 0, 0, 2, 0, 1, 0, 3, 46, 47, 47, 86, 1, 1, 1, 1, 0, 1, 3, 2, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3, 6, 7, 7, 46, 1, 1, 1, 1, 0, 1, 3, 2, 11, 3, 1, 2, 41, 81, 1, 1, 1, 1, 3, 0, 1, 2, 13, 3, 0, 3, 42, 83, 1, 1, 1, 1, 0, 3, 1, 2, 14, 3, 3, 2, 5, 44, 85, 1, 1, 1, 1, 1, 0, 3, 2, 15, 1, 3, 4, 6, 46, 86, 1, 1, 1, 1, 0, 1, 3, 3},
}

// TestMergeSeedsTakeTheMerge keeps the seed corpus meaningful: run as
// plain tests, the seeds must fold the runs of both views and leave the
// classifier's view zero-row keys of more than the id.
func TestMergeSeedsTakeTheMerge(t *testing.T) {
	var folded [2]int
	zeros := 0
	for _, seed := range mergeSeeds {
		forceLayout(t, 1+int(seed[0])%3, hashKey)
		m := &mergeFuzz{t: t, data: seed[1:], dir: t.TempDir()}
		m.run()
		folded[0], folded[1], zeros = folded[0]+m.folded[0], folded[1]+m.folded[1], zeros+m.zeros
	}
	if folded[0] == 0 || folded[1] == 0 || zeros == 0 {
		t.Fatalf("the seeds folded det at %d and cls at %d checks, and left cls zero-row keys at %d; want some of each", folded[0], folded[1], zeros)
	}
}

// TestSettleMergesZeroIDs: zero-row keys added in any order — ascending
// past the sorted ones, interleaved with them, a replay's whole unsorted
// list — settle into one list sorted by id that keeps every hash and
// encoding with its key.
func TestSettleMergesZeroIDs(t *testing.T) {
	var z zeroKeys
	type entry struct {
		hash uint64
		key  string
	}
	want := map[int64]entry{}
	note := func(ids ...int64) {
		for _, id := range ids {
			ek := clsKey(fmt.Sprint("box", id), id)
			z.add(id, uint64(id)*7+1, []byte(ek))
			want[id] = entry{uint64(id)*7 + 1, ek}
		}
		z.settle()
		byID := func(a, b viewKey) int { return cmp.Compare(a.id, b.id) }
		if !slices.IsSortedFunc(z.keys, byID) || len(z.keys) != len(want) {
			t.Fatalf("zero keys %v after noting %v", z.keys, ids)
		}
		for _, k := range z.keys {
			w := want[k.id]
			if got := string(z.key(&k)); w.hash != k.hash || w.key != got {
				t.Fatalf("id %d kept hash %d and key %q, want %d and %q", k.id, k.hash, got, w.hash, w.key)
			}
		}
	}
	note(10, 12, 14)
	note(20, 21)
	note(11, 30, 13, -5)
	note(50, 40, 45, 0, 15)
	note(16, 17)
}

// TestGallopFindsFirstNotBelow checks the galloping search against a
// linear scan over every start and target of a list with repeats.
func TestGallopFindsFirstNotBelow(t *testing.T) {
	var keys []viewKey
	for _, id := range []int64{1, 1, 2, 4, 4, 4, 7, 9, 9, 12, 13, 13, 13, 13, 20} {
		keys = append(keys, viewKey{id: id})
	}
	for lo := 0; lo <= len(keys); lo++ {
		for x := int64(0); x <= 21; x++ {
			want := lo
			for want < len(keys) && keys[want].id < x {
				want++
			}
			if got := gallop(keys, lo, x); got != want {
				t.Fatalf("gallop(from %d, %d) = %d, want %d", lo, x, got, want)
			}
		}
	}
}

// BenchmarkOrderedProbeRuns measures the probe per key on a view stored
// as 1 to 64 runs, which it folds to foldRuns at most. The view holds
// every even frame of 0..8191 with two objects each; a probe is a batch of
// 1 024 ascending frames, two keys a frame, half of them not stored.
// "blocks" stores the frames as runs of consecutive frames appended in
// falling order, as writers flushing in turn leave them; "strided" stores
// run i as every frame ≡ i (mod runs), the worst case for the run tried
// first. key "id" is a detector's view, "bbox,id" a classifier's.
func BenchmarkOrderedProbeRuns(b *testing.B) {
	const frames, batch = 8192, 1024
	box := func(id int64, j int) types.Datum {
		return types.NewString(fmt.Sprintf("%.2f,%.2f,%.2f,%.2f", float64(id%640)+0.25, float64(j)*37.5, float64(id%640)+120.5, float64(j)*37.5+96.75))
	}
	for _, key := range [][]string{{"id"}, {"bbox", "id"}} {
		for _, layout := range []string{"blocks", "strided"} {
			for _, runs := range []int{1, 2, 3, 4, 6, 8, 16, 64} {
				e, err := Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				v, err := e.CreateView("v", fuzzClsSchema, key)
				if err != nil {
					b.Fatal(err)
				}
				for r := runs - 1; r >= 0; r-- {
					rows := types.NewBatch(fuzzClsSchema)
					for f := int64(0); f < frames; f += 2 {
						if layout == "blocks" && int(f)*runs/frames != r || layout == "strided" && int(f/2)%runs != r {
							continue
						}
						for j := range 2 {
							rows.MustAppendRow(box(f, j), types.NewInt(f), types.NewString("car"))
						}
					}
					if _, err := v.Append(rows, nil); err != nil {
						b.Fatal(err)
					}
				}
				if got := len(v.rows.runs); got != min(runs, foldRuns) {
					b.Fatalf("%d runs kept, want %d", got, min(runs, foldRuns))
				}
				probes := make([]*types.Batch, frames/batch)
				for p := range probes {
					probes[p] = types.NewBatch(types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "bbox", Kind: types.KindString}})
					for f := int64(p * batch); f < int64((p+1)*batch); f++ {
						for j := range 2 {
							probes[p].MustAppendRow(types.NewInt(f), box(f, j))
						}
					}
				}
				keyIdx := []int{0}
				if len(key) == 2 {
					keyIdx = []int{1, 0}
				}
				sel := make([]int, 2*batch)
				for i := range sel {
					sel[i] = i
				}
				var out Probed
				b.Run(fmt.Sprintf("key=%s/%s/runs=%d", strings.Join(key, ","), layout, runs), func(b *testing.B) {
					for range b.N {
						var pk ProbeKeys
						for _, probe := range probes {
							if err := pk.Reset(probe, keyIdx); err != nil {
								b.Fatal(err)
							}
							out.Hits, out.Srcs, out.Rows = out.Hits[:0], out.Srcs[:0], out.Rows[:0]
							if err := v.Probe(&pk, sel, &out); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames*2), "ns/key")
				})
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
