package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"eva/internal/types"
	"eva/internal/udf"
)

// hasKey and rowsForKey are the per-key lookups the tests use as the
// independent reading of the index.
func hasKey(v *View, key []types.Datum) bool { return v.HasKeyBytes(AppendKey(nil, key)) }

func rowsForKey(v *View, key []types.Datum) []int { return v.RowsForKeyBytes(AppendKey(nil, key)) }

// probeOracle is the reference model of one view for the batch-probe
// property test: the log as a list of records, folded per key. A rows
// record holds (key, label) pairs in stored order; a keys record marks
// keys processed. Dropping a record models salvage.
type probeOracle struct {
	records []oracleRecord
}

type oracleRecord struct {
	keys   []int64
	labels []string // nil for a processed-keys record
}

// fold returns each processed key's row labels in stored order.
func (o *probeOracle) fold() map[int64][]string {
	state := map[int64][]string{}
	for _, rec := range o.records {
		for i, k := range rec.keys {
			if rec.labels == nil {
				if _, ok := state[k]; !ok {
					state[k] = nil
				}
				continue
			}
			state[k] = append(state[k], rec.labels[i])
		}
	}
	return state
}

// append mirrors View.Append: rows and keys already processed when the
// call began are skipped; the rest land as one rows and one keys record.
func (o *probeOracle) append(rowKeys []int64, labels []string, zeroKeys []int64) {
	before := o.fold()
	var rows, keys oracleRecord
	for i, k := range rowKeys {
		if _, done := before[k]; !done {
			rows.keys = append(rows.keys, k)
			rows.labels = append(rows.labels, labels[i])
		}
	}
	for _, k := range zeroKeys {
		if _, done := before[k]; !done {
			keys.keys = append(keys.keys, k)
		}
	}
	if len(rows.keys) > 0 {
		o.records = append(o.records, rows)
	}
	if len(keys.keys) > 0 {
		o.records = append(o.records, keys)
	}
}

// TestProbeBatchMatchesPerKeyOracle drives one view through random
// append sequences — duplicate keys inside one append, interleaved
// siblings, zero-row processed keys — then a salvaged mid-log hole,
// re-appends, an eviction and more appends, and after every step
// requires Probe over a random key selection to agree with the
// per-key oracle: exactly the processed keys hit, each with its rows in
// stored order, every index inside the returned snapshot.
func TestProbeBatchMatchesPerKeyOracle(t *testing.T) { probeOracleTrials(t, 12) }

func probeOracleTrials(t *testing.T, trials int) {
	const domain = 24
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		e, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.CreateView("p", sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &probeOracle{}
		serial := 0

		check := func(step string) {
			t.Helper()
			want := oracle.fold()
			// Probe the whole domain plus keys never appended, through
			// a random selection, with a dirty hits prefix to prove the
			// call appends rather than overwrites.
			pk := idKeys(intRange(domain + 4)...)
			var sel []int
			for k := 0; k < domain+4; k++ {
				if rng.Intn(4) > 0 {
					sel = append(sel, k)
				}
			}
			// A dirty prefix in all three lists proves the call appends.
			out := &Probed{Hits: []ProbeHit{{Key: -1}}, Srcs: []*types.Batch{nil}, Rows: []int{-1}}
			probeBoth(t, v, pk, sel, out)
			if out.Hits[0].Key != -1 || out.Srcs[0] != nil || out.Rows[0] != -1 {
				t.Fatalf("trial %d %s: Probe overwrote the caller's results", trial, step)
			}
			got := map[int]ProbeHit{}
			for _, h := range out.Hits[1:] {
				got[h.Key] = h
			}
			if len(got) != len(out.Hits)-1 {
				t.Fatalf("trial %d %s: a key hit twice", trial, step)
			}
			for _, k := range sel {
				labels, processed := want[int64(k)]
				h, hit := got[k]
				if hit != processed {
					t.Fatalf("trial %d %s: key %d hit=%v, oracle processed=%v", trial, step, k, hit, processed)
				}
				if h.Hi-h.Lo != len(labels) {
					t.Fatalf("trial %d %s: key %d has %d rows, oracle %d", trial, step, k, h.Hi-h.Lo, len(labels))
				}
				for i, label := range labels {
					chunk, r := out.Srcs[h.Lo+i], out.Rows[h.Lo+i]
					if chunk.At(r, 0).Int() != int64(k) || chunk.At(r, 1).Str() != label {
						t.Fatalf("trial %d %s: key %d row %d = (%v, %v), oracle label %q",
							trial, step, k, i, chunk.At(r, 0), chunk.At(r, 1), label)
					}
				}
				if ids := rowsForKey(v, []types.Datum{types.NewInt(int64(k))}); len(ids) != len(labels) {
					t.Fatalf("trial %d %s: key %d: RowsForKeyBytes gave %d ids, oracle %d rows", trial, step, k, len(ids), len(labels))
				}
				if hit != hasKey(v, []types.Datum{types.NewInt(int64(k))}) {
					t.Fatalf("trial %d %s: key %d: Probe and HasKeyBytes disagree", trial, step, k)
				}
			}
			if v.ProcessedCount() != len(want) {
				t.Fatalf("trial %d %s: ProcessedCount %d, oracle %d", trial, step, v.ProcessedCount(), len(want))
			}
		}

		randomAppend := func() {
			n := rng.Intn(7)
			rows := types.NewBatch(sch)
			var rowKeys []int64
			var labels []string
			for i := 0; i < n; i++ {
				// A small window makes duplicates and interleaved
				// siblings (k, k+1, k) common inside one append.
				k := int64(rng.Intn(domain))
				if i > 0 && rng.Intn(2) == 0 {
					k = rowKeys[rng.Intn(len(rowKeys))]
				}
				serial++
				label := fmt.Sprintf("r%d", serial)
				rows.MustAppendRow(types.NewInt(k), types.NewString(label))
				rowKeys = append(rowKeys, k)
				labels = append(labels, label)
			}
			var zero []int64
			var zeroKeys [][]types.Datum
			for i := rng.Intn(3); i > 0; i-- {
				k := int64(rng.Intn(domain))
				zero = append(zero, k)
				zeroKeys = append(zeroKeys, []types.Datum{types.NewInt(k)})
			}
			if _, err := v.Append(rows, zeroKeys); err != nil {
				t.Fatal(err)
			}
			oracle.append(rowKeys, labels, zero)
		}

		for i := 0; i < 8; i++ {
			randomAppend()
			check(fmt.Sprintf("append %d", i))
		}
		if len(oracle.records) > 1 {
			// Salvage: one mid-log record rots; Verify prunes exactly
			// its keys from the index.
			lost := rng.Intn(len(oracle.records) - 1)
			corruptRecord(t, v.path, lost)
			if _, err := v.Verify(); err != nil {
				t.Fatal(err)
			}
			oracle.records = append(oracle.records[:lost:lost], oracle.records[lost+1:]...)
			check("salvage")
		}
		for i := 0; i < 4; i++ {
			randomAppend()
			check(fmt.Sprintf("re-append %d", i))
		}
		if _, err := v.evict(); err != nil {
			t.Fatal(err)
		}
		oracle.records = nil
		check("evict")
		for i := 0; i < 4; i++ {
			randomAppend()
			check(fmt.Sprintf("post-evict append %d", i))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeBatchSnapshotCoversIndexesUnderAppend runs appenders against
// batch probes: whatever interleaving -race schedules, every (chunk,
// row) pair a probe returns must name a row of the probed key, and a
// key's rows arrive all together or not at all.
func TestProbeBatchSnapshotCoversIndexesUnderAppend(t *testing.T) { probeUnderAppend(t) }

func probeUnderAppend(t *testing.T) {
	eng, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "label", Kind: types.KindString},
	}
	v, err := eng.CreateView("probe_race", schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, probers, keysPer, rowsPerKey = 3, 3, 150, 3
	total := appenders * keysPer

	keys := idKeys(intRange(total)...).batch
	sel := make([]int, total)
	for k := range sel {
		sel[k] = k
	}

	var appending atomic.Int32
	appending.Store(appenders)
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer appending.Add(-1)
			for i := 0; i < keysPer; i++ {
				rows := types.NewBatch(schema)
				for r := 0; r < rowsPerKey; r++ {
					rows.MustAppendRow(types.NewInt(int64(w*keysPer+i)), types.NewString("car"))
				}
				if _, err := v.Append(rows, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out Probed
			var pk ProbeKeys
			for last := false; !last; {
				// One more pass after the appenders finish, so the
				// final state is always probed.
				last = appending.Load() == 0
				out = Probed{Hits: out.Hits[:0], Srcs: out.Srcs[:0], Rows: out.Rows[:0]}
				pk.Reset(keys, []int{0})
				v.Probe(&pk, sel, &out)
				for _, h := range out.Hits {
					if h.Hi-h.Lo != rowsPerKey {
						t.Errorf("key %d: %d rows, want %d (appends are atomic per key)", h.Key, h.Hi-h.Lo, rowsPerKey)
						return
					}
					for i := h.Lo; i < h.Hi; i++ {
						if got := out.Srcs[i].At(out.Rows[i], 0).Int(); got != int64(h.Key) {
							t.Errorf("key %d: pair %d names a row of key %d", h.Key, i, got)
							return
						}
					}
				}
				if last && len(out.Hits) != total {
					t.Errorf("final probe hit %d keys, want %d", len(out.Hits), total)
				}
			}
		}()
	}
	wg.Wait()
}

// intRange returns the ids 0..n-1.
func intRange(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// idKeys returns the probe keys of an id-keyed view for the ids, one row
// each.
func idKeys(ids ...int64) *ProbeKeys {
	b := types.NewBatch(types.Schema{{Name: "id", Kind: types.KindInt}})
	for _, id := range ids {
		b.MustAppendRow(types.NewInt(id))
	}
	var pk ProbeKeys
	pk.Reset(b, []int{0})
	return &pk
}

// probeIndex is Probe through the key index, whatever the keys' order.
func (v *View) probeIndex(pk *ProbeKeys, sel []int, out *Probed) {
	pk.Encode(sel)
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.indexProbeLocked(pk, sel, out)
}

// probeBoth is Probe, checked against the key index: it probes v for the
// rows sel of pk's batch into out, then again through probeIndex with
// fresh keys, and fails unless both found the same keys, the same (chunk,
// row) pairs in the same order and, for each key found, the hashKey of
// its encoding. It reports whether Probe took the ordered merge.
func probeBoth(t testing.TB, v *View, pk *ProbeKeys, sel []int, out *Probed) (merged bool) {
	t.Helper()
	v.mu.RLock()
	merged = v.mergeableLocked(pk)
	v.mu.RUnlock()
	hits, pairs := len(out.Hits), len(out.Rows)
	v.Probe(pk, sel, out)
	var ref ProbeKeys
	ref.Reset(pk.batch, pk.keyIdx)
	var want Probed
	v.probeIndex(&ref, sel, &want)
	got := out.Hits[hits:]
	if len(got) != len(want.Hits) {
		t.Fatalf("probe (merged %v) hit %d keys, the key index %d", merged, len(got), len(want.Hits))
	}
	for i, h := range got {
		w := want.Hits[i]
		if h.Key != w.Key || h.Lo-pairs != w.Lo || h.Hi-pairs != w.Hi {
			t.Fatalf("probe (merged %v) hit %d = %+v (pairs from %d), the key index %+v", merged, i, h, pairs, w)
		}
		if pk.Hashes[h.Key] != ref.Hashes[h.Key] {
			t.Fatalf("probe (merged %v) key %d: hash %x, its encoding's %x", merged, h.Key, pk.Hashes[h.Key], ref.Hashes[h.Key])
		}
	}
	if !slices.Equal(out.Srcs[pairs:], want.Srcs) || !slices.Equal(out.Rows[pairs:], want.Rows) {
		t.Fatalf("probe (merged %v) pairs %v, the key index %v", merged, out.Rows[pairs:], want.Rows)
	}
	return merged
}

// TestKeyIndexRuns pins the entry forms: a run, a run extended by an
// adjacent one (a key's rows straddling two replayed records, as after
// compaction's chunking), the switch to an explicit list when a later
// run is not adjacent, mark keeping the rows a key already has, and a
// key marked with no rows gaining them. Lists handed out earlier must
// read the same after every change.
func TestKeyIndexRuns(t *testing.T) {
	sch := types.MustSchema(types.Column{Name: "k", Kind: types.KindString})
	rows := &viewRows{keyIdx: []int{0}}
	var x keyIndex
	store := func(key string, n int) (first int) {
		first = rows.len()
		for i := 0; i < n; i++ {
			tail, _ := rows.room(sch)
			tail.MustAppendRow(types.NewString(key))
		}
		return first
	}
	enc := func(key string) (uint64, []byte) {
		ek := AppendKey(nil, []types.Datum{types.NewString(key)})
		return hashKey(ek), ek
	}
	addRun := func(key string, n int) {
		h, ek := enc(key)
		x.addRun(h, ek, rows, store(key, n), n)
	}
	lookup := func(key string) ([]int, bool) {
		h, ek := enc(key)
		i, ok := x.find(h, ek, rows)
		if !ok {
			return nil, false
		}
		first, n, list := x.ids(x.slots[i])
		return append(idRange(nil, first, n), list...), true
	}
	want := func(key string, ids ...int) {
		t.Helper()
		if got, ok := lookup(key); !ok || !slices.Equal(got, ids) {
			t.Fatalf("lookup(%s) = %v, %v; want %v", key, got, ok, ids)
		}
	}
	hb, ekb := enc("b")
	if !x.mark(hb, ekb, rows) || x.mark(hb, ekb, rows) {
		t.Fatal("mark of a new key must report true once")
	}
	want("b")
	addRun("a", 2)
	addRun("a", 3)
	want("a", 0, 1, 2, 3, 4)
	addRun("b", 2)
	want("b", 5, 6)
	addRun("a", 1)
	want("a", 0, 1, 2, 3, 4, 7)
	_, _, first := x.ids(x.slots[func() int { h, ek := enc("a"); i, _ := x.find(h, ek, rows); return i }()])
	addRun("a", 2)
	want("a", 0, 1, 2, 3, 4, 7, 8, 9)
	if ha, eka := enc("a"); x.mark(ha, eka, rows) {
		t.Fatal("mark of a key with rows reported it new")
	}
	want("a", 0, 1, 2, 3, 4, 7, 8, 9)
	if !slices.Equal(first, []int{0, 1, 2, 3, 4, 7}) {
		t.Fatalf("list handed out before the key grew now reads %v", first)
	}
	if _, ok := lookup("c"); ok || x.len() != 2 {
		t.Fatalf("unknown key found, or len = %d", x.len())
	}
	// Enough keys to double the table several times: all stay findable.
	for i := 0; i < 200; i++ {
		addRun(fmt.Sprint("k", i), 1)
	}
	for i := 0; i < 200; i++ {
		want(fmt.Sprint("k", i), 10+i)
	}
	want("a", 0, 1, 2, 3, 4, 7, 8, 9)
	want("b", 5, 6)
}

// TestHashKeyIsDemandHash: the key index files each key under hashKey,
// the probe hands that value back for a served row, and the apply
// operator demands the row by it, so hashKey must be udf.DemandHash — on
// the empty key, a one-byte key, and keys past one 32-byte xxhash stripe
// such as a stored (bbox, id) key.
func TestHashKeyIsDemandHash(t *testing.T) {
	keys := [][]byte{
		nil, {0},
		[]byte("a longer encoded key, past one xxhash stripe of 32 bytes"),
		AppendKey(nil, []types.Datum{types.NewString("123.45,67.89,234.56,178.90"), types.NewInt(1 << 40)}),
	}
	for _, key := range keys {
		if hashKey(key) != udf.DemandHash(key) {
			t.Errorf("hashKey(%q) != DemandHash", key)
		}
	}
}
