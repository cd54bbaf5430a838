package types

import (
	"fmt"
	"slices"
	"strings"
)

// Batch is a columnar collection of rows sharing one schema. It is the
// unit of data flow between execution operators and the unit of storage
// in segments and materialized views.
//
// The zero Batch is empty and unusable; construct with NewBatch.
//
// A batch obtained from a BatchPool additionally carries its owning
// pool and a free flag; see pool.go for the recycling lifecycle and
// its ownership rules.
type Batch struct {
	schema Schema
	cols   [][]Datum
	n      int

	pool *BatchPool // owning pool; nil for ordinary batches
	free bool       // true between Put and the next Get
}

// NewBatch returns an empty batch with the given schema.
func NewBatch(schema Schema) *Batch {
	cols := make([][]Datum, len(schema))
	return &Batch{schema: schema, cols: cols}
}

// NewNullBatch returns a batch of n NULL rows whose columns are one
// allocation, each capped at n: the shape of a materialized view's
// column chunk, which is allocated once at full length and written in
// place through its empty prefix (Slice(0, 0) appends into the same
// storage and can never outgrow it unnoticed — it would reallocate).
func NewNullBatch(schema Schema, n int) *Batch {
	b := NewBatch(schema)
	slab := make([]Datum, len(schema)*n)
	for i := range b.cols {
		b.cols[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	b.n = n
	return b
}

// NewBatchCapacity returns an empty batch with per-column capacity hint.
func NewBatchCapacity(schema Schema, capacity int) *Batch {
	b := NewBatch(schema)
	for i := range b.cols {
		b.cols[i] = make([]Datum, 0, capacity)
	}
	return b
}

// Schema returns the batch schema. Callers must not mutate it.
func (b *Batch) Schema() Schema { return b.schema }

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Pooled reports whether the batch came from a BatchPool and so may
// (and should) be returned with Put once its owner is done with it.
func (b *Batch) Pooled() bool { return b != nil && b.pool != nil }

// AppendRow appends one row. The number of datums must match the schema
// width; kinds are checked loosely (NULL is accepted in any column).
func (b *Batch) AppendRow(row ...Datum) error {
	if len(row) != len(b.schema) {
		return fmt.Errorf("types: append row of width %d to batch of width %d", len(row), len(b.schema))
	}
	for i, d := range row {
		if !b.schema[i].Kind.accepts(d.kind) {
			return fmt.Errorf("types: column %q expects %s, got %s", b.schema[i].Name, b.schema[i].Kind, d.Kind())
		}
		b.cols[i] = append(b.cols[i], d)
	}
	b.n++
	return nil
}

// AppendEncoded appends count rows decoded from src, which holds their
// datums in AppendBinary form, row after row — the payload of a stored
// row record — and returns the bytes consumed. The rows are measured and
// checked under AppendRow's kind rule first, so on error b is unchanged;
// then the bytes they span are converted to a string once and every TEXT
// datum is cut out of it — one allocation per call, not one per string —
// and src may be reused as soon as the call returns.
func (b *Batch) AppendEncoded(src []byte, count int) (int, error) {
	end, text := 0, false
	for r := 0; r < count; r++ {
		for c := range b.cols {
			k, n, err := datumSpan(src[end:])
			if err == nil && !b.schema[c].Kind.accepts(k) {
				err = fmt.Errorf("types: column %q expects %s, got %s", b.schema[c].Name, b.schema[c].Kind, k)
			}
			if err != nil {
				return 0, err
			}
			text = text || k == KindString
			end += n
		}
	}
	var arena string
	if text {
		arena = string(src[:end])
	}
	for off := 0; off < end; {
		for c := range b.cols {
			k, n, _ := datumSpan(src[off:end])
			text := ""
			if k == KindString {
				text = arena[off : off+n]
			}
			b.cols[c] = append(b.cols[c], decodeSpan(k, src[off:off+n], text))
			off += n
		}
	}
	b.n += count
	return end, nil
}

// MustAppendRow is AppendRow that panics on error; for generators whose
// schemas are statically correct.
func (b *Batch) MustAppendRow(row ...Datum) {
	if err := b.AppendRow(row...); err != nil {
		panic(err)
	}
}

// At returns the datum at (row, col).
func (b *Batch) At(row, col int) Datum { return b.cols[col][row] }

// Col returns the backing slice for a column. Callers must treat it as
// read-only.
func (b *Batch) Col(col int) []Datum { return b.cols[col] }

// ColByName returns the backing slice for the named column, or nil.
func (b *Batch) ColByName(name string) []Datum {
	i := b.schema.IndexOf(name)
	if i < 0 {
		return nil
	}
	return b.cols[i]
}

// Row materializes row i as a datum slice (a copy).
func (b *Batch) Row(i int) []Datum {
	out := make([]Datum, len(b.cols))
	for c := range b.cols {
		out[c] = b.cols[c][i]
	}
	return out
}

// AppendBatch appends all rows of other, whose schema must be equal.
func (b *Batch) AppendBatch(other *Batch) error {
	if !b.schema.Equal(other.schema) {
		return fmt.Errorf("types: append batch %s to batch %s", other.schema, b.schema)
	}
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], other.cols[c]...)
	}
	b.n += other.n
	return nil
}

// Reset truncates the batch to zero rows, keeping column capacity.
func (b *Batch) Reset() {
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
	b.n = 0
}

// AppendRange appends rows [lo, hi) of other, whose schema must be
// equal. It copies datum values without materializing an intermediate
// slice, so it is the allocation-free way to move a row range between
// batches (Slice shares storage instead — never safe onto or out of a
// pooled batch).
func (b *Batch) AppendRange(other *Batch, lo, hi int) error {
	if !b.schema.Equal(other.schema) {
		return fmt.Errorf("types: append range from batch %s to batch %s", other.schema, b.schema)
	}
	if lo < 0 || hi > other.n || lo > hi {
		return fmt.Errorf("types: append range [%d,%d) of a %d-row batch", lo, hi, other.n)
	}
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], other.cols[c][lo:hi]...)
	}
	b.n += hi - lo
	return nil
}

// AppendColumns appends n rows given a column at a time: cols[c][:n]
// holds the values of column c — the output shape of a projection.
// Rows equal what AppendRow would store for the same datums, and kinds
// are checked under its rule. On error b is unchanged.
// lint:hotpath column kind-check loop must not allocate per row
func (b *Batch) AppendColumns(cols [][]Datum, n int) error {
	if len(cols) != len(b.cols) {
		return fmt.Errorf("types: append %d columns to batch of width %d", len(cols), len(b.cols))
	}
	for c, col := range cols {
		want := b.schema[c].Kind
		for i := range col[:n] {
			if !want.accepts(col[i].kind) {
				return fmt.Errorf("types: column %q expects %s, got %s", b.schema[c].Name, want, col[i].kind)
			}
		}
	}
	for c, col := range cols {
		b.cols[c] = append(b.cols[c], col[:n]...) // lint:coldalloc one append per column, not per row
	}
	b.n += n
	return nil
}

// CompactSel compacts the batch to the rows listed in sel — ascending
// row indexes, as an expression program's Filter returns them — reusing
// the column storage. It moves a column at a time, so each pass walks
// one backing slice. The caller must own the batch exclusively.
// lint:hotpath compaction copy loop must not allocate per row
func (b *Batch) CompactSel(sel []int) {
	if len(sel) == b.n {
		return // ascending and distinct, so every row is kept
	}
	for c, col := range b.cols {
		for w, r := range sel {
			col[w] = col[r]
		}
		b.cols[c] = col[:len(sel)]
	}
	b.n = len(sel)
}

// Truncate keeps only the first n rows, in place — the pooled-
// lifecycle counterpart of Slice(0, n), preserving the batch's
// ownership instead of aliasing its storage. No-op when n >= Len.
func (b *Batch) Truncate(n int) {
	if n >= b.n {
		return
	}
	if n < 0 {
		n = 0
	}
	for c := range b.cols {
		b.cols[c] = b.cols[c][:n]
	}
	b.n = n
}

// AppendGather appends len(leftRows) rows column-wise — the output
// shape of a join. Output row k is left's row leftRows[k] followed by
// the trailing len(b.Schema())-len(left.Schema()) columns of right[k]
// at row rightRows[k]; when left spans b's whole width, right is not
// consulted and the call is a plain row gather. Rows equal what
// AppendRow would store for the same concatenated datums, but kinds are
// checked once per column (per run of rows sharing a right batch)
// instead of once per datum. On error b is unchanged.
// lint:hotpath gather copy loops must not allocate per row
func (b *Batch) AppendGather(left *Batch, leftRows []int, right []*Batch, rightRows []int) error {
	n, lw := len(leftRows), len(left.cols)
	rw := len(b.cols) - lw
	if rw < 0 || (rw > 0 && (len(right) != n || len(rightRows) != n)) {
		return fmt.Errorf("types: gather %d+%d rows of width %d into batch of width %d",
			n, len(right), lw, len(b.cols))
	}
	base := b.n
	for c := range b.cols {
		b.cols[c] = slices.Grow(b.cols[c], n)[:base+n]
	}
	if err := b.gather(base, left, leftRows, right, rightRows); err != nil {
		for c := range b.cols {
			b.cols[c] = b.cols[c][:base]
		}
		return err
	}
	b.n = base + n
	return nil
}

// gather fills the rows AppendGather reserved from base on.
func (b *Batch) gather(base int, left *Batch, leftRows []int, right []*Batch, rightRows []int) error {
	lw := len(left.cols)
	rw := len(b.cols) - lw
	for c := 0; c < lw; c++ {
		if err := b.gatherColumn(c, base, left, c, leftRows); err != nil {
			return err
		}
	}
	for lo, hi := 0, 0; rw > 0 && lo < len(right); lo = hi {
		src := right[lo]
		for hi = lo + 1; hi < len(right) && right[hi] == src; hi++ {
		}
		if len(src.cols) < rw {
			return fmt.Errorf("types: gather %d trailing columns from batch of width %d", rw, len(src.cols))
		}
		for c := 0; c < rw; c++ {
			if err := b.gatherColumn(lw+c, base+lo, src, len(src.cols)-rw+c, rightRows[lo:hi]); err != nil {
				return err
			}
		}
	}
	return nil
}

// gatherColumn copies src's column sc at rows into b's column c from
// row `at` on, under AppendRow's kind rule. Every datum in a batch
// already satisfies its own column's kind, so compatible column kinds
// settle the check without looking at the rows; only an incompatible
// pair checks each gathered datum (NULL is accepted anywhere).
// lint:hotpath gather copy loop must not allocate per row
func (b *Batch) gatherColumn(c, at int, src *Batch, sc int, rows []int) error {
	want, have := b.schema[c].Kind, src.schema[sc].Kind
	dst, col := b.cols[c][at:], src.cols[sc]
	if want.accepts(have) {
		for k, r := range rows {
			dst[k] = col[r]
		}
		return nil
	}
	for k, r := range rows {
		d := col[r]
		if !want.accepts(d.kind) {
			return fmt.Errorf("types: column %q expects %s, got %s", b.schema[c].Name, want, d.Kind())
		}
		dst[k] = d
	}
	return nil
}

// Project returns a new batch with only the named columns, sharing the
// underlying column storage.
func (b *Batch) Project(names []string) (*Batch, error) {
	schema, err := b.schema.Project(names)
	if err != nil {
		return nil, err
	}
	out := &Batch{schema: schema, cols: make([][]Datum, len(names)), n: b.n}
	for i, name := range names {
		out.cols[i] = b.cols[b.schema.IndexOf(name)]
	}
	return out, nil
}

// Slice returns a view of rows [lo, hi), sharing column storage.
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{schema: b.schema, cols: make([][]Datum, len(b.cols)), n: hi - lo}
	for c := range b.cols {
		out.cols[c] = b.cols[c][lo:hi]
	}
	return out
}

// ProjectInto is Project by column ordinal writing the view into dst,
// whose schema and column headers are reused — for a caller that takes a
// key-column view of every batch and keeps one holder for all of them.
// dst must not be a pooled batch.
func (b *Batch) ProjectInto(dst *Batch, cols []int) {
	dst.n = b.n
	dst.schema = slices.Grow(dst.schema[:0], len(cols))[:len(cols)]
	dst.cols = slices.Grow(dst.cols[:0], len(cols))[:len(cols)]
	for i, c := range cols {
		dst.schema[i], dst.cols[i] = b.schema[c], b.cols[c]
	}
}

// EncodedSize returns the total canonical encoded size of all datums,
// used for storage-footprint accounting.
func (b *Batch) EncodedSize() int { return b.EncodedSizeFrom(0) }

// EncodedSizeFrom is EncodedSize of rows [lo, Len), for a caller that
// accounts for a batch as it grows.
func (b *Batch) EncodedSizeFrom(lo int) int {
	total := 0
	for _, col := range b.cols {
		for i := range col[lo:] {
			total += col[lo+i].EncodedSize()
		}
	}
	return total
}

// String renders up to 10 rows for debugging.
func (b *Batch) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batch%s %d rows", b.schema, b.n)
	limit := b.n
	if limit > 10 {
		limit = 10
	}
	for r := 0; r < limit; r++ {
		sb.WriteString("\n  ")
		for c := range b.cols {
			if c > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(b.cols[c][r].String())
		}
	}
	if b.n > limit {
		fmt.Fprintf(&sb, "\n  ... (%d more)", b.n-limit)
	}
	return sb.String()
}
