package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"eva/internal/types"
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
// requires ProbeBatch over a random key selection to agree with the
// per-key oracle: exactly the processed keys hit, each with its rows in
// stored order, every index inside the returned snapshot.
func TestProbeBatchMatchesPerKeyOracle(t *testing.T) {
	const domain = 24
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
	)
	for trial := 0; trial < 12; trial++ {
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
			var keys []byte
			offs := []int{0}
			for k := int64(0); k < domain+4; k++ {
				keys = AppendKey(keys, []types.Datum{types.NewInt(k)})
				offs = append(offs, len(keys))
			}
			var sel []int
			for k := 0; k < domain+4; k++ {
				if rng.Intn(4) > 0 {
					sel = append(sel, k)
				}
			}
			snap := &types.Batch{}
			hits := v.ProbeBatch(keys, offs, sel, []ProbeHit{{Key: -1}}, snap)
			if hits[0].Key != -1 {
				t.Fatalf("trial %d %s: ProbeBatch overwrote the caller's hits", trial, step)
			}
			hits = hits[1:]
			got := map[int][]int{}
			for _, h := range hits {
				got[h.Key] = h.Rows
			}
			if len(got) != len(hits) {
				t.Fatalf("trial %d %s: a key hit twice", trial, step)
			}
			for _, k := range sel {
				labels, processed := want[int64(k)]
				rows, hit := got[k]
				if hit != processed {
					t.Fatalf("trial %d %s: key %d hit=%v, oracle processed=%v", trial, step, k, hit, processed)
				}
				if len(rows) != len(labels) {
					t.Fatalf("trial %d %s: key %d has %d rows, oracle %d", trial, step, k, len(rows), len(labels))
				}
				for i, r := range rows {
					if r >= snap.Len() {
						t.Fatalf("trial %d %s: key %d row index %d outside snapshot of %d", trial, step, k, r, snap.Len())
					}
					if snap.At(r, 0).Int() != int64(k) || snap.At(r, 1).Str() != labels[i] {
						t.Fatalf("trial %d %s: key %d row %d = (%v, %v), oracle label %q",
							trial, step, k, i, snap.At(r, 0), snap.At(r, 1), labels[i])
					}
				}
				if hit != hasKey(v, []types.Datum{types.NewInt(int64(k))}) {
					t.Fatalf("trial %d %s: key %d: ProbeBatch and HasKeyBytes disagree", trial, step, k)
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
// batch probes: whatever interleaving -race schedules, every row index a
// probe returns must lie inside the snapshot returned with it and name a
// row of the probed key.
func TestProbeBatchSnapshotCoversIndexesUnderAppend(t *testing.T) {
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

	var keys []byte
	offs := []int{0}
	sel := make([]int, total)
	for k := 0; k < total; k++ {
		keys = AppendKey(keys, []types.Datum{types.NewInt(int64(k))})
		offs = append(offs, len(keys))
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
			var hits []ProbeHit
			snap := &types.Batch{}
			for last := false; !last; {
				// One more pass after the appenders finish, so the
				// final state is always probed.
				last = appending.Load() == 0
				hits = v.ProbeBatch(keys, offs, sel, hits[:0], snap)
				for _, h := range hits {
					if len(h.Rows) != rowsPerKey {
						t.Errorf("key %d: %d rows, want %d (appends are atomic per key)", h.Key, len(h.Rows), rowsPerKey)
						return
					}
					for _, r := range h.Rows {
						if r >= snap.Len() {
							t.Errorf("key %d: row index %d outside snapshot of %d rows", h.Key, r, snap.Len())
							return
						}
						if got := snap.At(r, 0).Int(); got != int64(h.Key) {
							t.Errorf("key %d: index %d names a row of key %d", h.Key, r, got)
							return
						}
					}
				}
				if last && len(hits) != total {
					t.Errorf("final probe hit %d keys, want %d", len(hits), total)
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyIndexRuns pins the entry forms: a run, a run extended by an
// adjacent one (a key's rows straddling two replayed records, as after
// compaction's chunking), the switch to an explicit list when a later
// run is not adjacent, and mark keeping the rows a key already has.
// Windows handed out earlier must read the same after every change.
func TestKeyIndexRuns(t *testing.T) {
	x := newKeyIndex()
	a, b := []byte("a"), []byte("b")
	want := func(ek []byte, rows ...int) {
		t.Helper()
		got, ok := x.lookup(ek)
		if !ok || !slices.Equal(got, rows) {
			t.Fatalf("lookup(%s) = %v, %v; want %v", ek, got, ok, rows)
		}
	}
	x.mark(b)
	want(b)
	x.addRun(a, 0, 2)
	first, _ := x.lookup(a)
	x.addRun(a, 2, 3)
	want(a, 0, 1, 2, 3, 4)
	x.addRun(b, 5, 2)
	want(b, 5, 6)
	x.addRun(a, 7, 1)
	want(a, 0, 1, 2, 3, 4, 7)
	x.addRun(a, 8, 2)
	want(a, 0, 1, 2, 3, 4, 7, 8, 9)
	x.mark(a)
	want(a, 0, 1, 2, 3, 4, 7, 8, 9)
	if !slices.Equal(first, []int{0, 1}) {
		t.Fatalf("window handed out before the key grew now reads %v", first)
	}
	if _, ok := x.lookup([]byte("c")); ok || x.len() != 2 {
		t.Fatalf("unknown key found, or len = %d", x.len())
	}
}
