package types

import (
	"fmt"
	"testing"
)

// FuzzBatchPoolLifecycle drives random interleavings of the pooled
// batch lifecycle — Get, AppendRow, CompactSel, Truncate,
// AppendRange, Row extraction, Put — against a non-pooled oracle
// batch. After every operation the pooled batch must match the oracle
// exactly, and rows copied out of earlier generations must survive
// later generations untouched: with poisoning enabled, any operation
// that aliased recycled storage instead of copying it corrupts (and
// panics on) those retained rows.
func FuzzBatchPoolLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 0, 2, 5})
	f.Add([]byte{0, 0, 4, 3, 0, 4, 3})
	f.Add([]byte{0, 1, 0, 2, 9, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 5, 2, 1, 3, 4, 0, 3})

	schema := MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "tag", Kind: KindString},
	)

	f.Fuzz(func(t *testing.T, ops []byte) {
		pool := NewBatchPool()
		pool.SetPoison(true)

		cur := pool.Get(schema)
		oracle := NewBatch(schema)
		seq := int64(0)

		type retainedRow struct {
			row  []Datum
			want string
		}
		var retained []retainedRow

		render := func(row []Datum) string {
			return fmt.Sprintf("%s|%s", row[0], row[1])
		}
		check := func(op string) {
			t.Helper()
			if cur.Len() != oracle.Len() {
				t.Fatalf("after %s: pooled len %d, oracle len %d", op, cur.Len(), oracle.Len())
			}
			for r := 0; r < cur.Len(); r++ {
				for c := 0; c < 2; c++ {
					if cur.At(r, c).String() != oracle.At(r, c).String() {
						t.Fatalf("after %s: (%d,%d) pooled %s, oracle %s",
							op, r, c, cur.At(r, c), oracle.At(r, c))
					}
				}
			}
		}

		for i := 0; i < len(ops); i++ {
			switch ops[i] % 6 {
			case 0: // append one row to both
				seq++
				id, tag := NewInt(seq), NewString(fmt.Sprintf("t%d", seq))
				cur.MustAppendRow(id, tag)
				oracle.MustAppendRow(id, tag)
				check("append")
			case 1: // compact in place to a deterministic selection
				keep := make([]bool, cur.Len())
				var sel []int
				for r := range keep {
					if keep[r] = (r+int(ops[i]))%3 != 0; keep[r] {
						sel = append(sel, r)
					}
				}
				cur.CompactSel(sel)
				oracle = keptRows(oracle, keep)
				check("compact")
			case 2: // truncate
				n := 0
				if i+1 < len(ops) {
					i++
					if cur.Len() > 0 {
						n = int(ops[i]) % (cur.Len() + 1)
					}
				}
				cur.Truncate(n)
				keep := make([]bool, oracle.Len())
				for r := 0; r < n && r < len(keep); r++ {
					keep[r] = true
				}
				oracle = keptRows(oracle, keep)
				check("truncate")
			case 3: // Put + Get: a new generation over recycled storage
				pool.Put(cur)
				cur = pool.Get(schema)
				oracle = NewBatch(schema)
				check("recycle")
			case 4: // retain a copied row across generations
				if cur.Len() > 0 {
					r := int(ops[i]) % cur.Len()
					row := cur.Row(r)
					retained = append(retained, retainedRow{row: row, want: render(row)})
				}
			case 5: // append a range of the oracle into the pooled batch
				if oracle.Len() > 0 {
					lo := int(ops[i]) % oracle.Len()
					hi := oracle.Len()
					if err := cur.AppendRange(oracle, lo, hi); err != nil {
						t.Fatalf("append range: %v", err)
					}
					next := keptRows(oracle, allTrue(oracle.Len()))
					if err := next.AppendRange(oracle, lo, hi); err != nil {
						t.Fatalf("oracle append range: %v", err)
					}
					oracle = next
					check("appendrange")
				}
			}
		}

		// No retained row may alias recycled storage: every copy made
		// before a Put must still render exactly as it did then, even
		// though the pool has poisoned and reused the batch since.
		for i, rr := range retained {
			if got := render(rr.row); got != rr.want {
				t.Fatalf("retained row %d changed across generations: got %s, want %s", i, got, rr.want)
			}
		}
	})
}

// keptRows is the oracle's filter: a fresh, unpooled batch holding the
// rows of b where keep is true, copied row by row.
func keptRows(b *Batch, keep []bool) *Batch {
	out := NewBatch(b.Schema())
	for r, k := range keep {
		if k {
			out.MustAppendRow(b.Row(r)...)
		}
	}
	return out
}

func allTrue(n int) []bool {
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	return keep
}
