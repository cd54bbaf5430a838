package storage

import (
	"math/rand"
	"testing"

	"eva/internal/types"
)

// TestViewAppendScanQuick is a model-based property test: a sequence
// of random appends against the real view must agree with a trivial
// in-memory reference model, and survive a close/reopen round trip.
func TestViewAppendScanQuick(t *testing.T) {
	type op struct {
		Key     int64
		Rows    int  // 0..3 result rows for this key
		KeyOnly bool // mark processed without rows
	}
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindString},
	)
	check := func(ops []op) bool {
		dir := t.TempDir()
		e, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.CreateView("q", sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		// Reference model: first writer of a key wins.
		modelRows := map[int64]int{}
		processed := map[int64]bool{}
		for _, o := range ops {
			if o.KeyOnly {
				if _, err := v.Append(nil, [][]types.Datum{{types.NewInt(o.Key)}}); err != nil {
					t.Fatal(err)
				}
				if !processed[o.Key] {
					processed[o.Key] = true
					modelRows[o.Key] = 0
				}
				continue
			}
			b := types.NewBatch(sch)
			for r := 0; r < o.Rows; r++ {
				b.MustAppendRow(types.NewInt(o.Key), types.NewString("v"))
			}
			var keys [][]types.Datum
			if o.Rows == 0 {
				keys = [][]types.Datum{{types.NewInt(o.Key)}}
			}
			if _, err := v.Append(b, keys); err != nil {
				t.Fatal(err)
			}
			if !processed[o.Key] {
				processed[o.Key] = true
				modelRows[o.Key] = o.Rows
			}
		}
		// Validate against the model, before and after reopen.
		validate := func(view *View) bool {
			total := 0
			for k, rows := range modelRows {
				key := []types.Datum{types.NewInt(k)}
				if !hasKey(view, key) {
					t.Logf("key %d missing", k)
					return false
				}
				if got := len(rowsForKey(view, key)); got != rows {
					t.Logf("key %d: %d rows, want %d", k, got, rows)
					return false
				}
				total += rows
			}
			return view.Rows() == total && view.ProcessedCount() == len(processed)
		}
		if !validate(v) {
			return false
		}
		e2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := e2.CreateView("q", sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		return validate(v2)
	}
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(30)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{
				Key:     int64(r.Intn(12)),
				Rows:    r.Intn(4),
				KeyOnly: r.Intn(4) == 0,
			}
		}
		if !check(ops) {
			t.Fatalf("trial %d failed with ops %+v", trial, ops)
		}
	}
}
