package storage

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"eva/internal/types"
)

// TestViewConcurrentAppendScan hammers one materialized view with
// concurrent appenders and readers. Scan returns a bounded snapshot
// slice under the read lock, so readers must never observe rows a
// concurrent Append is still writing; -race verifies the locking.
func TestViewConcurrentAppendScan(t *testing.T) {
	eng, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "label", Kind: types.KindString},
	}
	v, err := eng.CreateView("race_view", schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}

	const appenders = 4
	const readers = 4
	const rowsPer = 200

	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPer; i++ {
				id := int64(w*rowsPer + i)
				rows := types.NewBatch(schema)
				rows.MustAppendRow(types.NewInt(id), types.NewString("car"))
				if _, err := v.Append(rows, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rowsPer; i++ {
				snap := v.Scan()
				for r := 0; r < snap.Len(); r++ {
					if snap.At(r, 0).IsNull() {
						t.Error("scan observed a half-written row")
						return
					}
				}
				_ = v.Rows()
				_ = v.ProcessedCount()
				_ = v.Footprint()
				_ = hasKey(v, []types.Datum{types.NewInt(int64(i))})
			}
		}()
	}
	wg.Wait()

	if got := v.Rows(); got != appenders*rowsPer {
		t.Fatalf("rows = %d, want %d", got, appenders*rowsPer)
	}
}

// TestEngineConcurrentViewRegistry exercises the engine-level maps:
// concurrent CreateView (same and different names), lookups, and
// footprint sums.
func TestEngineConcurrentViewRegistry(t *testing.T) {
	eng, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schema := types.Schema{{Name: "id", Kind: types.KindInt}}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := []string{"shared", "ping", "pong"}[i%3]
				if _, err := eng.CreateView(name, schema, []string{"id"}); err != nil {
					t.Errorf("create: %v", err)
					return
				}
				_ = eng.View(name)
				_ = eng.Views()
				_ = eng.TotalViewFootprint()
			}
		}(w)
	}
	wg.Wait()
	if got := len(eng.Views()); got != 3 {
		t.Fatalf("views = %d, want 3", got)
	}
}

// TestOrderedProbeUnderMaintenance runs ordered probes against a view
// keyed on id while an appender adds frames in ascending order (rows and
// zero-row keys), a second adds rows of later frames in falling order —
// each append a run of its own, so the runs pass foldRuns and fold — a third
// adds zero-row keys behind them, and a fourth goroutine rots a record
// and has Verify salvage around it, compacts and evicts: every structure
// the merge reads is rebuilt, folded, swapped or reset under it. Whatever -race schedules, each key a probe finds must come
// with the rows of its id only, all of them, each triple naming the
// probed row it serves.
func TestOrderedProbeUnderMaintenance(t *testing.T) {
	forceLayout(t, 3, hashKey)
	dir := t.TempDir()
	eng, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "label", Kind: types.KindString}}
	v, err := eng.CreateView("ordered_race", schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	const frames, rowsPer = 600, 3
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for id := int64(0); id < frames; id += 2 {
			rows := types.NewBatch(schema)
			var zero [][]types.Datum
			if id%6 == 0 {
				zero = append(zero, []types.Datum{types.NewInt(id)})
			} else {
				for r := 0; r < rowsPer; r++ {
					rows.MustAppendRow(types.NewInt(id), types.NewString("car"))
				}
			}
			if _, err := v.Append(rows, zero); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for id := int64(2*frames - 2); !stop.Load() && id >= frames; id -= 2 {
			rows := types.NewBatch(schema)
			for r := 0; r < rowsPer; r++ {
				rows.MustAppendRow(types.NewInt(id), types.NewString("bus"))
			}
			if _, err := v.Append(rows, nil); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(int64(2*i + 1))}}); err != nil {
				t.Errorf("append zero-row key: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			switch i % 4 {
			case 0:
				v.mu.Lock()
				if data, err := os.ReadFile(v.path); err == nil && len(data) > headerEnd(t, data) {
					data[headerEnd(t, data)] ^= 0xff
					_ = os.WriteFile(v.path, data, 0o644)
				}
				v.mu.Unlock()
				if _, err := v.Verify(); err != nil {
					t.Errorf("verify: %v", err)
				}
			case 1:
				if _, err := v.Compact(); err != nil {
					t.Errorf("compact: %v", err)
				}
			case 3:
				if _, err := v.evict(); err != nil {
					t.Errorf("evict: %v", err)
				}
			}
		}
	}()
	// Two probers send every id, or every other, twice — no batch is
	// dense — and a third sends each id once, two to a batch: an even id
	// the first appender stores and an odd one the third marks, which the
	// covered step serves whenever no eviction came between them.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var windows [][]int64
			if p < 2 {
				var ids []int64
				for id := int64(p); id < 2*frames; id += 1 + int64(p) {
					ids = append(ids, id, id)
				}
				windows = append(windows, ids)
			} else {
				for lo := int64(0); lo < 2*frames; lo += 2 {
					windows = append(windows, idWindow(lo, lo+2))
				}
			}
			var out Probed
			for last := false; !last; {
				last = stop.Load()
				var pk ProbeKeys
				for _, ids := range windows {
					pk.Reset(idKeys(ids...).batch, []int{0})
					out = Probed{Hits: out.Hits[:0], In: out.In[:0], Srcs: out.Srcs[:0], Rows: out.Rows[:0]}
					if err := v.Probe(&pk, allRows(len(ids)), &out); err != nil {
						t.Error(err)
						return
					}
					for _, h := range out.Hits {
						id := ids[h.Key]
						if n := h.Hi - h.Lo; n != 0 && n != rowsPer || n == 0 && out.Covered {
							t.Errorf("id %d: %d rows, covered %v; want 0 or %d, and %d when covered", id, n, out.Covered, rowsPer, rowsPer)
							return
						}
						for i := h.Lo; i < h.Hi; i++ {
							if got := out.Srcs[i].At(out.Rows[i], 0).Int(); got != id || out.In[i] != h.Key {
								t.Errorf("id %d was served a row of id %d for probed row %d", id, got, out.In[i])
								return
							}
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
}
