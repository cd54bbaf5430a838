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

// keyOracle is the naive model of one view the probe tests hold Probe
// to: the log as a list of records, folded into a map from encoded key to
// whether the key was processed and the ids — ordinals in stored order —
// and labels of its rows. Dropping a record models salvage.
type keyOracle struct {
	records []oracleRecord
}

type oracleRecord struct {
	keys   []string // AppendKey encodings: a row's key, or a processed key
	labels []string // nil for a processed-keys record
}

// oracleKey is one processed key of the folded state.
type oracleKey struct {
	ids    []int
	labels []string
}

// fold returns the state the records build: a rows record stores the
// rows of the keys no earlier record processed, each key's rows together
// where it first appears; a keys record marks its keys processed.
func (o *keyOracle) fold() map[string]*oracleKey {
	state, n := map[string]*oracleKey{}, 0
	for _, rec := range o.records {
		if rec.labels == nil {
			for _, k := range rec.keys {
				if state[k] == nil {
					state[k] = &oracleKey{}
				}
			}
			continue
		}
		fresh := map[string]*oracleKey{}
		var order []string
		for i, k := range rec.keys {
			if state[k] != nil {
				continue
			}
			if fresh[k] == nil {
				fresh[k] = &oracleKey{}
				order = append(order, k)
			}
			fresh[k].labels = append(fresh[k].labels, rec.labels[i])
		}
		for _, k := range order {
			e := fresh[k]
			for range e.labels {
				e.ids = append(e.ids, n)
				n++
			}
			state[k] = e
		}
	}
	return state
}

// append mirrors View.Append: rows and keys already processed when the
// call began are skipped; the rest land as one rows and one keys record.
func (o *keyOracle) append(rowKeys, labels, zeroKeys []string) {
	before := o.fold()
	var rows, keys oracleRecord
	for i, k := range rowKeys {
		if before[k] == nil {
			rows.keys = append(rows.keys, k)
			rows.labels = append(rows.labels, labels[i])
		}
	}
	for _, k := range zeroKeys {
		if before[k] == nil && !slices.Contains(keys.keys, k) {
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

// compact mirrors View.Compact: the state as rows records of
// compactChunkRows rows in stored order, then the zero-row keys sorted.
func (o *keyOracle) compact() {
	state := o.fold()
	var rows oracleRecord
	var zero []string
	for k, e := range state {
		if len(e.ids) == 0 {
			zero = append(zero, k)
		}
		for i, id := range e.ids {
			for len(rows.keys) <= id {
				rows.keys, rows.labels = append(rows.keys, ""), append(rows.labels, "")
			}
			rows.keys[id], rows.labels[id] = k, e.labels[i]
		}
	}
	slices.Sort(zero)
	o.records = nil
	for lo := 0; lo < len(rows.keys); lo += compactChunkRows {
		hi := min(lo+compactChunkRows, len(rows.keys))
		o.records = append(o.records, oracleRecord{keys: rows.keys[lo:hi], labels: rows.labels[lo:hi]})
	}
	for lo := 0; lo < len(zero); lo += compactChunkRows {
		o.records = append(o.records, oracleRecord{keys: zero[lo:min(lo+compactChunkRows, len(zero))]})
	}
}

// checkProbe probes v for the rows sel of pk's batch into out, and fails
// unless exactly the keys want holds processed were found, each once, with
// the (input row, chunk, row) triples of its rows' ids in order, their
// labels, and — a view keyed on more than the id — the hashKey of its
// encoding. A probe that took the covered step must have
// been given the whole batch and found every key processed; it hits
// exactly the keys with rows, in row order, and leaves no hashes. It
// returns whether the probe took the step.
func checkProbe(t testing.TB, v *View, want map[string]*oracleKey, pk *ProbeKeys, sel []int, out *Probed) bool {
	t.Helper()
	hits, pairs := len(out.Hits), len(out.Rows)
	if err := v.Probe(pk, sel, out); err != nil {
		t.Fatal(err)
	}
	got := map[int]ProbeHit{}
	for i, h := range out.Hits[hits:] {
		if _, dup := got[h.Key]; dup {
			t.Fatalf("key row %d hit twice", h.Key)
		}
		if out.Covered && i > 0 && h.Key <= out.Hits[hits+i-1].Key {
			t.Fatalf("covered probe hit key row %d after %d", h.Key, out.Hits[hits+i-1].Key)
		}
		got[h.Key] = h
	}
	if out.Covered && len(sel) != pk.batch.Len() {
		t.Fatalf("covered probe of %d of the batch's %d rows", len(sel), pk.batch.Len())
	}
	label := v.schema.IndexOf("label")
	for _, k := range sel {
		ek := AppendRowKey(nil, pk.batch, k, pk.keyIdx)
		e, h := want[string(ek)], got[k]
		_, hit := got[k]
		switch {
		case out.Covered && e == nil:
			t.Fatalf("key %x: covered probe, oracle processed=false", ek)
		case out.Covered && hit != (len(e.ids) > 0):
			t.Fatalf("key %x hit=%v in a covered probe, oracle rows %d", ek, hit, len(e.ids))
		case !out.Covered && hit != (e != nil):
			t.Fatalf("key %x hit=%v, oracle processed=%v", ek, hit, e != nil)
		}
		if !hit {
			continue
		}
		if h.Lo < pairs || h.Hi-h.Lo != len(e.ids) {
			t.Fatalf("key %x: pairs %d..%d, oracle %d rows", ek, h.Lo, h.Hi, len(e.ids))
		}
		for i, id := range e.ids {
			chunk, r := v.rows.at(id)
			if out.In[h.Lo+i] != k || out.Srcs[h.Lo+i] != chunk || out.Rows[h.Lo+i] != r || chunk.At(r, label).Str() != e.labels[i] {
				t.Fatalf("key %x row %d: triple (%d, %p, %d), oracle (%d, row %d) labelled %q", ek, i, out.In[h.Lo+i], out.Srcs[h.Lo+i], out.Rows[h.Lo+i], k, id, e.labels[i])
			}
		}
		if !out.Covered && !v.rows.idOnly() && pk.Hashes[k] != hashKey(ek) {
			t.Fatalf("key %x: hash %x, its encoding's %x", ek, pk.Hashes[k], hashKey(ek))
		}
	}
	return out.Covered
}

// idKey returns the AppendKey encoding of an id-keyed view's key.
func idKey(id int64) string { return string(AppendKey(nil, []types.Datum{types.NewInt(id)})) }

// TestProbeBatchMatchesPerKeyOracle drives one view through random
// append sequences — duplicate keys inside one append, interleaved
// siblings, zero-row processed keys — then a salvaged mid-log hole,
// re-appends, an eviction and more appends, and after every step
// requires Probe over a random key selection to agree with the
// per-key oracle: exactly the processed keys hit, each with its rows in
// stored order, every index inside the returned snapshot. A dense batch
// — a window of consecutive ids, all selected — must agree too, and the
// trials must see it both covered and, with an id of it missing, merged.
func TestProbeBatchMatchesPerKeyOracle(t *testing.T) { probeOracleTrials(t, 12) }

func probeOracleTrials(t *testing.T, trials int) {
	const domain = 24
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	)
	var covered, merged int
	defer func() {
		if !t.Failed() && (covered == 0 || merged == 0) {
			t.Errorf("dense batches: %d covered, %d merged; want some of each", covered, merged)
		}
	}()
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
		oracle := &keyOracle{}
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
			// A dirty prefix in all four lists proves the call appends.
			out := &Probed{Hits: []ProbeHit{{Key: -1}}, In: []int{-1}, Srcs: []*types.Batch{nil}, Rows: []int{-1}}
			checkProbe(t, v, want, pk, sel, out)
			if out.Hits[0].Key != -1 || out.In[0] != -1 || out.Srcs[0] != nil || out.Rows[0] != -1 {
				t.Fatalf("trial %d %s: Probe overwrote the caller's results", trial, step)
			}
			lo := int64(rng.Intn(domain))
			dense := idKeys(idWindow(lo, lo+1+int64(rng.Intn(6)))...)
			if checkProbe(t, v, want, dense, allRows(dense.batch.Len()), out) {
				covered++
			} else {
				merged++
			}
			for _, k := range sel {
				e := want[idKey(int64(k))]
				if ids := rowsForKey(v, []types.Datum{types.NewInt(int64(k))}); e != nil && !slices.Equal(ids, e.ids) {
					t.Fatalf("trial %d %s: key %d: RowsForKeyBytes gave %v, oracle %v", trial, step, k, ids, e.ids)
				}
				if hasKey(v, []types.Datum{types.NewInt(int64(k))}) != (e != nil) {
					t.Fatalf("trial %d %s: key %d: HasKeyBytes and the oracle disagree", trial, step, k)
				}
			}
			if v.ProcessedCount() != len(want) {
				t.Fatalf("trial %d %s: ProcessedCount %d, oracle %d", trial, step, v.ProcessedCount(), len(want))
			}
		}

		randomAppend := func() {
			n := rng.Intn(7)
			var ids []int64
			for i := 0; i < n; i++ {
				// A small window makes keys with several rows, and keys
				// stored before, common inside one append.
				k := int64(rng.Intn(domain))
				if i > 0 && rng.Intn(2) == 0 {
					k = ids[rng.Intn(len(ids))]
				}
				ids = append(ids, k)
			}
			// A stored batch arrives in id order.
			slices.Sort(ids)
			rows := types.NewBatch(sch)
			var rowKeys, labels []string
			for _, k := range ids {
				serial++
				label := fmt.Sprintf("r%d", serial)
				rows.MustAppendRow(types.NewInt(k), types.NewString(label))
				rowKeys = append(rowKeys, idKey(k))
				labels = append(labels, label)
			}
			var zero []string
			var zeroKeys [][]types.Datum
			for i := rng.Intn(3); i > 0; i-- {
				k := int64(rng.Intn(domain))
				zero = append(zero, idKey(k))
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
			for last := false; !last; {
				// One more pass after the appenders finish, so the
				// final state is always probed.
				last = appending.Load() == 0
				out = Probed{Hits: out.Hits[:0], Srcs: out.Srcs[:0], Rows: out.Rows[:0]}
				var pk ProbeKeys
				pk.Reset(keys, []int{0})
				if err := v.Probe(&pk, sel, &out); err != nil {
					t.Error(err)
					return
				}
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

// idWindow returns the ids lo..hi-1.
func idWindow(lo, hi int64) []int64 {
	ids := intRange(int(hi - lo))
	for i := range ids {
		ids[i] += lo
	}
	return ids
}

// allRows returns the rows 0..n-1: the whole of a batch as a selection.
func allRows(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
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

// TestHashKeyIsDemandHash: a view files each row's key under hashKey,
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
