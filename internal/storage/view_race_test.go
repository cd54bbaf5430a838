package storage

import (
	"sync"
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
