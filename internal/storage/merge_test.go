package storage

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"eva/internal/types"
)

// mergeFuzz is one FuzzMergeMatchesProbe run: an engine with two views
// keyed on id — a detector's (id alone) and a classifier's (bbox, id), the
// order the planner gives a scalar UDF's key — driven by the fuzz input.
type mergeFuzz struct {
	t      *testing.T
	data   []byte
	dir    string
	e      *Engine
	det    *View
	cls    *View
	next   [3]int64 // each interleaved writer's next id
	serial int
	merged [2]int // probes of det and of cls the ordered merge answered
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

// appendFrom appends a few frames to both views, from id on: each frame
// has no rows (a processed key), or one to three rows whose boxes may
// repeat — a key's rows then come apart inside one append.
func (m *mergeFuzz) appendFrom(id int64, frames int) int64 {
	det, cls := types.NewBatch(fuzzDetSchema), types.NewBatch(fuzzClsSchema)
	var detZero, clsZero [][]types.Datum
	for f := 0; f < frames; f++ {
		rows := m.byte() % 4
		if rows == 0 {
			detZero = append(detZero, []types.Datum{types.NewInt(id)})
			if m.byte()%16 == 0 {
				// A key of more than the id processed with no rows: the
				// classifier view falls back to its key index for good.
				clsZero = append(clsZero, []types.Datum{types.NewString("z"), types.NewInt(id)})
			}
		}
		for r := 0; r < rows; r++ {
			m.serial++
			label := types.NewString(fmt.Sprint("r", m.serial))
			det.MustAppendRow(types.NewInt(id), label)
			cls.MustAppendRow(types.NewString(fuzzBoxes[m.byte()%len(fuzzBoxes)]), types.NewInt(id), label)
		}
		id += 1 + int64(m.byte()%3/2)
	}
	if _, err := m.det.Append(det, detZero); err != nil {
		m.t.Fatal(err)
	}
	if _, err := m.cls.Append(cls, clsZero); err != nil {
		m.t.Fatal(err)
	}
	return id
}

// salvage flips one record of the view's log and has Verify drop it.
func (m *mergeFuzz) salvage(v *View) {
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
	if records == 0 {
		return
	}
	corruptRecord(m.t, v.path, m.byte()%records)
	if _, err := v.Verify(); err != nil {
		m.t.Fatal(err)
	}
}

// check probes both views with a batch of non-decreasing ids drawn from
// the input, duplicates included, through probeBoth.
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
	var out Probed
	if probeBoth(m.t, m.det, idKeys(ids...), sel, &out) {
		m.merged[0]++
	}
	cls := types.NewBatch(types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "bbox", Kind: types.KindString}})
	for _, id := range ids {
		cls.MustAppendRow(types.NewInt(id), types.NewString(fuzzBoxes[m.byte()%len(fuzzBoxes)]))
	}
	var pk ProbeKeys
	pk.Reset(cls, []int{1, 0})
	if probeBoth(m.t, m.cls, &pk, sel, &Probed{}) {
		m.merged[1]++
	}
}

// run drives the views through the input's operations, checking after
// each: appends from three interleaved writers (each writer's frames
// ascend, so the views hold a few runs), an append from an earlier id
// (a run of its own), a reopen (replay), an eviction (the log's rewrite
// to an empty generation), a compaction and a salvaged record.
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
			for _, v := range []*View{m.det, m.cls} {
				if _, err := v.evict(); err != nil {
					m.t.Fatal(err)
				}
			}
		case c == 13:
			if _, err := m.det.Compact(); err != nil {
				m.t.Fatal(err)
			}
		default:
			m.salvage([]*View{m.det, m.cls}[c%2])
		}
		m.check()
	}
	if err := m.e.Close(); err != nil {
		m.t.Fatal(err)
	}
}

// FuzzMergeMatchesProbe holds the ordered probe to the key index: after
// every append, replay, eviction rewrite, compaction and salvage of two
// views keyed on id, on chunks of two to eight rows, a probe of sorted
// ids must find the same keys, the same (chunk, row) pairs in the same
// order and the same hashes through the merge as through the index.
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

// mergeSeeds start the fuzzer from logs of a few ascending runs, where
// the merge answers: appends by each writer, an out-of-order append, a
// reopen, a compaction and a salvage.
var mergeSeeds = [][]byte{
	{1, 0, 5, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 2, 0, 5, 1, 2, 7, 40, 41, 42, 100, 120, 1, 4, 2, 2, 2, 1, 2, 3, 9, 3, 9, 11, 8, 5, 6, 7, 40, 44, 13, 6, 1, 41, 60},
	{2, 4, 6, 3, 1, 3, 2, 1, 0, 0, 3, 3, 3, 3, 3, 3, 7, 20, 30, 40, 50, 60, 70, 80, 9, 10, 3, 1, 1, 2, 1, 3, 4, 0, 1, 2, 3, 14, 1, 6, 5, 6, 7, 8, 15, 1, 12, 5, 1, 2, 3, 4},
	{0, 1, 6, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0, 23, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 2, 6, 1, 2, 1, 2, 1, 2, 11, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9},
}

// TestMergeSeedsTakeTheMerge keeps the seed corpus meaningful: run as
// plain tests, the seeds must have the ordered merge answer probes of
// both views, not only the key index.
func TestMergeSeedsTakeTheMerge(t *testing.T) {
	var merged [2]int
	for _, seed := range mergeSeeds {
		forceLayout(t, 1+int(seed[0])%3, hashKey)
		m := &mergeFuzz{t: t, data: seed[1:], dir: t.TempDir()}
		m.run()
		merged[0], merged[1] = merged[0]+m.merged[0], merged[1]+m.merged[1]
	}
	if merged[0] == 0 || merged[1] == 0 {
		t.Fatalf("the ordered merge answered %d detector and %d classifier probes of the seeds; want some of each", merged[0], merged[1])
	}
}

// TestSettleMergesZeroIDs: zero-row ids noted in any order — ascending
// past the sorted ones, interleaved with them, a replay's whole unsorted
// list — settle into one sorted list that keeps every hash with its id.
func TestSettleMergesZeroIDs(t *testing.T) {
	var o idOrder
	o.idOnly = true
	want := map[int64]uint64{}
	note := func(ids ...int64) {
		for _, id := range ids {
			ek := AppendKey(nil, []types.Datum{types.NewInt(id)})
			o.noteZero(ek, uint64(id)*7+1)
			want[id] = uint64(id)*7 + 1
		}
		o.settle()
		if !slices.IsSorted(o.zeroIDs) || len(o.zeroIDs) != len(want) || len(o.zeroHashes) != len(want) || o.sorted != len(o.zeroIDs) {
			t.Fatalf("zero ids %v after noting %v", o.zeroIDs, ids)
		}
		for i, id := range o.zeroIDs {
			if want[id] != o.zeroHashes[i] {
				t.Fatalf("id %d kept hash %d, want %d", id, o.zeroHashes[i], want[id])
			}
		}
	}
	note(10, 12, 14)
	note(20, 21)
	note(11, 30, 13, -5)
	note(50, 40, 45, 0, 15)
	note(16, 17)
	if o.off {
		t.Fatal("integer ids turned the ordered probe off")
	}
	o.noteZero(AppendKey(nil, []types.Datum{types.Null}), 0)
	if !o.off {
		t.Fatal("a NULL id left the ordered probe on")
	}
}

// TestGallopFindsFirstNotBelow checks the galloping search against a
// linear scan over every start and target of a list with repeats.
func TestGallopFindsFirstNotBelow(t *testing.T) {
	ids := []int64{1, 1, 2, 4, 4, 4, 7, 9, 9, 12, 13, 13, 13, 13, 20}
	for lo := 0; lo <= len(ids); lo++ {
		for x := int64(0); x <= 21; x++ {
			want := lo
			for want < len(ids) && ids[want] < x {
				want++
			}
			if got := gallopIDs(ids, lo, len(ids), x); got != want {
				t.Fatalf("gallopIDs(from %d, %d) = %d, want %d", lo, x, got, want)
			}
		}
	}
}

// BenchmarkOrderedProbeRuns measures, per probed key, the ordered merge
// against the key index on a view cut into 1 to 64 runs, the ground for
// maxMergeRuns. The view holds every even frame of 0..8191 with two
// objects each; a probe is a batch of 1 024 ascending frames, two keys a
// frame, half of them not stored. "blocks" stores the frames as runs of
// consecutive frames appended in falling order, as writers flushing in
// turn leave them; "strided" stores run i as every frame ≡ i (mod runs),
// the worst case for the run tried first. key "id" is a detector's view,
// "bbox,id" a classifier's.
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
				if got := len(v.rows.order.runs); got != runs {
					b.Fatalf("%d runs stored, want %d", got, runs)
				}
				var keyIdx []int
				probes := make([]*types.Batch, frames/batch)
				for p := range probes {
					probes[p] = types.NewBatch(types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "bbox", Kind: types.KindString}})
					for f := int64(p * batch); f < int64((p+1)*batch); f++ {
						for j := range 2 {
							probes[p].MustAppendRow(types.NewInt(f), box(f, j))
						}
					}
				}
				keyIdx = []int{0}
				if len(key) == 2 {
					keyIdx = []int{1, 0}
				}
				sel := make([]int, 2*batch)
				for i := range sel {
					sel[i] = i
				}
				var pk ProbeKeys
				var out Probed
				for _, path := range []string{"merge", "index"} {
					b.Run(fmt.Sprintf("key=%s/%s/runs=%d/%s", strings.Join(key, ","), layout, runs, path), func(b *testing.B) {
						for range b.N {
							for _, probe := range probes {
								pk.Reset(probe, keyIdx)
								out.Hits, out.Srcs, out.Rows = out.Hits[:0], out.Srcs[:0], out.Rows[:0]
								if path == "index" {
									v.probeIndex(&pk, sel, &out)
									continue
								}
								v.mu.RLock()
								v.mergeLocked(&pk, sel, &out)
								v.mu.RUnlock()
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames*2), "ns/key")
					})
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
