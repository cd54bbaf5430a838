package types

import (
	"math/rand"
	"strings"
	"testing"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(Column{"id", KindInt}, Column{"label", KindString}, Column{"area", KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if got := s.IndexOf("LABEL"); got != 1 {
		t.Errorf("IndexOf(LABEL) = %d, want 1 (case-insensitive)", got)
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf(missing) should be -1")
	}
	if !s.Has("id") || s.Has("nope") {
		t.Error("Has misbehaves")
	}
	if s.KindOf("area") != KindFloat || s.KindOf("nope") != KindNull {
		t.Error("KindOf misbehaves")
	}
	if got := s.String(); got != "(id INTEGER, label TEXT, area FLOAT)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaDuplicate(t *testing.T) {
	if _, err := NewSchema(Column{"a", KindInt}, Column{"A", KindFloat}); err == nil {
		t.Fatal("duplicate column names (case-insensitive) should error")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	s := MustSchema(Column{"id", KindInt})
	out := s.Concat(MustSchema(Column{"id", KindInt}, Column{"bbox", KindString}))
	if len(out) != 3 {
		t.Fatalf("concat width = %d, want 3", len(out))
	}
	if out[1].Name != "id_r" {
		t.Errorf("duplicate column renamed to %q, want id_r", out[1].Name)
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project([]string{"area", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Name != "area" || p[1].Name != "id" {
		t.Errorf("project order wrong: %s", p)
	}
	if _, err := s.Project([]string{"ghost"}); err == nil {
		t.Error("project unknown column should error")
	}
}

func TestSchemaEqualClone(t *testing.T) {
	s := testSchema(t)
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not equal")
	}
	c[0].Name = "other"
	if s.Equal(c) {
		t.Error("equal after mutation")
	}
	if s.Equal(s[:2]) {
		t.Error("prefix should not be equal")
	}
	names := s.Names()
	if len(names) != 3 || names[2] != "area" {
		t.Errorf("Names = %v", names)
	}
}

func TestBatchAppendAndAccess(t *testing.T) {
	b := NewBatch(testSchema(t))
	if err := b.AppendRow(NewInt(1), NewString("car"), NewFloat(0.3)); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(NewInt(2), Null, NewFloat(0.1)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.At(0, 1).Str(); got != "car" {
		t.Errorf("At(0,1) = %q", got)
	}
	if !b.At(1, 1).IsNull() {
		t.Error("null not preserved")
	}
	row := b.Row(1)
	if row[0].Int() != 2 {
		t.Errorf("Row(1)[0] = %v", row[0])
	}
	if col := b.ColByName("area"); len(col) != 2 || col[0].Float() != 0.3 {
		t.Errorf("ColByName(area) = %v", col)
	}
	if b.ColByName("ghost") != nil {
		t.Error("ColByName(ghost) should be nil")
	}
}

func TestBatchAppendErrors(t *testing.T) {
	b := NewBatch(testSchema(t))
	if err := b.AppendRow(NewInt(1)); err == nil {
		t.Error("short row should error")
	}
	if err := b.AppendRow(NewString("x"), NewString("car"), NewFloat(0)); err == nil {
		t.Error("kind mismatch should error")
	}
	// Numeric coercion is allowed.
	if err := b.AppendRow(NewFloat(1), NewString("car"), NewInt(0)); err != nil {
		t.Errorf("numeric coercion rejected: %v", err)
	}
}

func TestBatchFilterProjectSlice(t *testing.T) {
	b := NewBatchCapacity(testSchema(t), 4)
	for i := 0; i < 4; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(float64(i)/10))
	}
	f := NewBatch(b.Schema())
	if err := f.AppendGather(b, nil, []int{0, 2}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 || f.At(1, 0).Int() != 2 {
		t.Errorf("filter wrong: %v", f)
	}
	p, err := b.Project([]string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || len(p.Schema()) != 1 {
		t.Errorf("project wrong: %v", p)
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.At(0, 0).Int() != 1 {
		t.Errorf("slice wrong: %v", s)
	}
}

func TestBatchAppendBatch(t *testing.T) {
	a := NewBatch(testSchema(t))
	a.MustAppendRow(NewInt(1), NewString("car"), NewFloat(0.5))
	b := NewBatch(testSchema(t))
	b.MustAppendRow(NewInt(2), NewString("bus"), NewFloat(0.7))
	if err := a.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 || a.At(1, 1).Str() != "bus" {
		t.Errorf("append batch wrong: %v", a)
	}
	other := NewBatch(MustSchema(Column{"x", KindInt}))
	if err := a.AppendBatch(other); err == nil {
		t.Error("schema mismatch should error")
	}
}

func TestBatchEncodedSizeAndString(t *testing.T) {
	b := NewBatch(testSchema(t))
	b.MustAppendRow(NewInt(1), NewString("car"), NewFloat(0.5))
	want := NewInt(1).EncodedSize() + NewString("car").EncodedSize() + NewFloat(0.5).EncodedSize()
	if got := b.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, want %d", got, want)
	}
	for i := 0; i < 15; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(0.5))
	}
	s := b.String()
	if !strings.Contains(s, "more") {
		t.Errorf("String should elide rows: %q", s)
	}
}

// gatherOracle is AppendGather spelled with AppendRow: the row of the
// taken columns is materialized and appended datum by datum.
func gatherOracle(dst, left *Batch, leftCols, leftRows []int, right []*Batch, rightCols, rightRows []int) error {
	if leftCols == nil {
		leftCols = make([]int, len(left.Schema()))
		for c := range leftCols {
			leftCols[c] = c
		}
	}
	for k, lr := range leftRows {
		var row []Datum
		for _, c := range leftCols {
			row = append(row, left.At(lr, c))
		}
		for _, c := range rightCols {
			row = append(row, right[k].At(rightRows[k], len(right[k].Schema())+c))
		}
		if err := dst.AppendRow(row...); err != nil {
			return err
		}
	}
	return nil
}

// trailing lists the trailing-column ordinals of the last n columns.
func trailing(n int) []int {
	cols := make([]int, n)
	for j := range cols {
		cols[j] = j - n
	}
	return cols
}

func batchesEqual(a, b *Batch) bool {
	if a.Len() != b.Len() || !a.Schema().Equal(b.Schema()) {
		return false
	}
	for r := 0; r < a.Len(); r++ {
		for c := range a.Schema() {
			x, y := a.At(r, c), b.At(r, c)
			if x.Kind() != y.Kind() || (!x.IsNull() && Compare(x, y) != 0) {
				return false
			}
		}
	}
	return true
}

// TestAppendGatherMatchesAppendRow checks the column-wise gather
// against the row-wise oracle: random row selections with repeats, two
// right batches of different widths in alternating runs (only their
// trailing columns are taken), NULLs in every column, and INTEGER
// datums flowing into FLOAT columns and back.
func TestAppendGatherMatchesAppendRow(t *testing.T) {
	leftSch := MustSchema(Column{"id", KindInt}, Column{"score", KindFloat})
	wideSch := MustSchema(Column{"id", KindInt}, Column{"label", KindString}, Column{"area", KindFloat})
	narrowSch := MustSchema(Column{"label", KindString}, Column{"area", KindInt})
	outSch := leftSch.Concat(MustSchema(Column{"label", KindString}, Column{"area", KindFloat}))

	left := NewBatch(leftSch)
	wide := NewBatch(wideSch)
	narrow := NewBatch(narrowSch)
	for i := 0; i < 9; i++ {
		id, score := NewInt(int64(i)), NewFloat(float64(i)/2)
		if i%4 == 1 {
			score = NewInt(int64(i)) // numeric mixing inside a FLOAT column
		}
		if i%5 == 2 {
			id = Null
		}
		left.MustAppendRow(id, score)
		label := NewString(strings.Repeat("x", i))
		if i%3 == 0 {
			label = Null
		}
		wide.MustAppendRow(NewInt(int64(100+i)), label, NewFloat(float64(i)))
		narrow.MustAppendRow(label, NewInt(int64(7*i)))
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(12)
		var leftRows, rightRows []int
		var right []*Batch
		src := wide
		for k := 0; k < n; k++ {
			if rng.Intn(3) == 0 {
				if src == wide {
					src = narrow
				} else {
					src = wide
				}
			}
			leftRows = append(leftRows, rng.Intn(left.Len()))
			right = append(right, src)
			rightRows = append(rightRows, rng.Intn(src.Len()))
		}
		got, want := NewBatch(outSch), NewBatch(outSch)
		// A non-empty destination: the gather appends.
		got.MustAppendRow(NewInt(-1), NewFloat(-1), NewString("seed"), NewFloat(-1))
		want.MustAppendRow(NewInt(-1), NewFloat(-1), NewString("seed"), NewFloat(-1))
		if err := gatherOracle(want, left, nil, leftRows, right, trailing(2), rightRows); err != nil {
			t.Fatal(err)
		}
		if err := got.AppendGather(left, nil, leftRows, right, trailing(2), rightRows); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !batchesEqual(got, want) {
			t.Fatalf("trial %d: gather\n%s\noracle\n%s", trial, got, want)
		}
	}

	// Left spanning the whole width is a plain row gather.
	got, want := NewBatch(leftSch), NewBatch(leftSch)
	rows := []int{8, 0, 0, 3}
	if err := gatherOracle(want, left, nil, rows, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := got.AppendGather(left, nil, rows, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(got, want) {
		t.Fatalf("plain gather\n%s\noracle\n%s", got, want)
	}
}

// TestAppendGatherKindMismatch: a source column of an incompatible kind
// is an error exactly when AppendRow would raise one — NULLs of that
// column still pass — with the same message, and a failed gather
// leaves the destination as it was.
func TestAppendGatherKindMismatch(t *testing.T) {
	left := NewBatch(MustSchema(Column{"id", KindInt}))
	left.MustAppendRow(NewInt(1))
	left.MustAppendRow(NewInt(2))
	right := NewBatch(MustSchema(Column{"label", KindString}))
	right.MustAppendRow(Null)
	right.MustAppendRow(NewString("car"))
	outSch := MustSchema(Column{"id", KindInt}, Column{"label", KindInt})

	for _, tc := range []struct {
		name      string
		rightRows []int
		wantErr   bool
	}{
		{"all NULL", []int{0, 0}, false},
		{"a TEXT datum", []int{0, 1}, true},
	} {
		got, want := NewBatch(outSch), NewBatch(outSch)
		got.MustAppendRow(NewInt(0), NewInt(0))
		want.MustAppendRow(NewInt(0), NewInt(0))
		rights := []*Batch{right, right}
		wantErr := gatherOracle(want, left, nil, []int{0, 1}, rights, []int{-1}, tc.rightRows)
		gotErr := got.AppendGather(left, nil, []int{0, 1}, rights, []int{-1}, tc.rightRows)
		if (wantErr != nil) != tc.wantErr {
			t.Fatalf("%s: oracle error = %v", tc.name, wantErr)
		}
		if (gotErr != nil) != tc.wantErr || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: gather error %v, oracle %v", tc.name, gotErr, wantErr)
		}
		if gotErr != nil {
			want.Truncate(1) // the oracle stored the rows before the bad one
		}
		if !batchesEqual(got, want) {
			t.Fatalf("%s: gather\n%s\nwant\n%s", tc.name, got, want)
		}
	}

	// Shape errors: triples of unequal length, a source too narrow, a
	// column list as wide as the destination is not, a left column out
	// of range, a non-negative trailing ordinal.
	out := NewBatch(outSch)
	if err := out.AppendGather(left, nil, []int{0, 1}, []*Batch{right}, []int{-1}, []int{0}); err == nil {
		t.Error("gather with fewer right rows than left rows should error")
	}
	wideOut := NewBatch(MustSchema(Column{"id", KindInt}, Column{"a", KindString}, Column{"b", KindString}))
	if err := wideOut.AppendGather(left, nil, []int{0}, []*Batch{right}, []int{-2, -1}, []int{0}); err == nil || wideOut.Len() != 0 {
		t.Errorf("gather of 2 trailing columns from a 1-column batch: err=%v len=%d", err, wideOut.Len())
	}
	if err := out.AppendGather(left, nil, []int{0}, nil, nil, nil); err == nil {
		t.Error("gather of 1 column into a batch of width 2 should error")
	}
	if err := out.AppendGather(left, []int{1}, []int{0}, []*Batch{right}, []int{-1}, []int{0}); err == nil {
		t.Error("gather of left column 1 from a 1-column batch should error")
	}
	if err := out.AppendGather(left, nil, []int{0}, []*Batch{right}, []int{0}, []int{0}); err == nil || out.Len() != 0 {
		t.Errorf("gather of trailing ordinal 0: err=%v len=%d", err, out.Len())
	}
}

// TestAppendGatherColumnLists checks the column-list gather against the
// row-wise oracle: random subsets of the left and of the right columns
// in random order, empty lists on either side (with no right column the
// right batches are not consulted), runs of rows alternating between
// right batches whose leading columns differ, and a kind error part way
// through, which leaves the destination as it was.
func TestAppendGatherColumnLists(t *testing.T) {
	leftSch := MustSchema(Column{"id", KindInt}, Column{"frame", KindBytes}, Column{"score", KindFloat})
	viewSch := MustSchema(Column{"id", KindInt}, Column{"label", KindString}, Column{"area", KindFloat})
	outSch := MustSchema(Column{"label", KindString}, Column{"area", KindFloat})
	left, view, udfOut := NewBatch(leftSch), NewBatch(viewSch), NewBatch(outSch)
	for i := 0; i < 6; i++ {
		left.MustAppendRow(NewInt(int64(i)), NewBytes([]byte{byte(i)}), NewFloat(float64(i)/4))
		view.MustAppendRow(NewInt(int64(i)), NewString(strings.Repeat("v", i)), NewFloat(float64(i)))
		udfOut.MustAppendRow(NewString(strings.Repeat("u", i)), NewInt(int64(10*i)))
	}
	all := leftSch.Concat(outSch)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		leftCols := rng.Perm(len(leftSch))[:rng.Intn(len(leftSch)+1)]
		var rightCols []int
		for _, j := range rng.Perm(len(outSch))[:rng.Intn(len(outSch)+1)] {
			rightCols = append(rightCols, j-len(outSch))
		}
		var sch Schema
		for _, c := range leftCols {
			sch = append(sch, all[c])
		}
		for _, c := range rightCols {
			sch = append(sch, all[len(all)+c])
		}
		n := rng.Intn(10)
		var leftRows, rightRows []int
		var right []*Batch
		src := view
		for k := 0; k < n; k++ {
			if rng.Intn(3) == 0 {
				if src == view {
					src = udfOut
				} else {
					src = view
				}
			}
			leftRows = append(leftRows, rng.Intn(left.Len()))
			right = append(right, src)
			rightRows = append(rightRows, rng.Intn(src.Len()))
		}
		if len(rightCols) == 0 {
			right, rightRows = nil, nil // not consulted
		}
		got, want := NewBatch(sch), NewBatch(sch)
		if err := gatherOracle(want, left, leftCols, leftRows, right, rightCols, rightRows); err != nil {
			t.Fatal(err)
		}
		if err := got.AppendGather(left, leftCols, leftRows, right, rightCols, rightRows); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !batchesEqual(got, want) || got.Len() != n {
			t.Fatalf("trial %d: left %v right %v: gather\n%s\noracle\n%s", trial, leftCols, rightCols, got, want)
		}
	}

	// The key columns of an input batch behind every Out column: the
	// view-staging gather.
	stage := NewBatch(MustSchema(Column{"id", KindInt}, Column{"label", KindString}, Column{"area", KindFloat}))
	if err := stage.AppendGather(left, []int{0}, []int{4, 1}, []*Batch{udfOut, view}, trailing(2), []int{2, 5}); err != nil {
		t.Fatal(err)
	}
	if stage.At(0, 0).Int() != 4 || stage.At(0, 1).Str() != "uu" || stage.At(1, 0).Int() != 1 || stage.At(1, 2).Float() != 5 {
		t.Fatalf("staging gather = %v", stage)
	}

	// No column at all: rows without columns.
	empty := NewBatch(nil)
	if err := empty.AppendGather(left, []int{}, []int{0, 3, 5}, nil, nil, nil); err != nil || empty.Len() != 3 {
		t.Fatalf("zero-column gather: err=%v len=%d", err, empty.Len())
	}

	// A kind error in a later right run leaves b unchanged.
	intOut := NewBatch(MustSchema(Column{"id", KindInt}, Column{"label", KindInt}))
	intOut.MustAppendRow(NewInt(-1), NewInt(-1))
	nulls := NewBatch(outSch)
	nulls.MustAppendRow(Null, NewFloat(0))
	err := intOut.AppendGather(left, []int{0}, []int{0, 1, 2}, []*Batch{nulls, nulls, view}, []int{-2}, []int{0, 0, 3})
	if err == nil || intOut.Len() != 1 || len(intOut.Col(0)) != 1 || len(intOut.Col(1)) != 1 || intOut.At(0, 1).Int() != -1 {
		t.Fatalf("kind error: err=%v batch %v", err, intOut)
	}
}

func TestAppendColumnsMatchesAppendRow(t *testing.T) {
	src := NewBatch(testSchema(t))
	for i := 0; i < 5; i++ {
		src.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(float64(i)/10))
	}
	// id holds a float and area an int (the numeric mix), label a NULL.
	src.MustAppendRow(NewFloat(5.5), Null, NewInt(1))
	cols := [][]Datum{src.Col(0), src.Col(1), src.Col(2)}

	got := NewBatch(testSchema(t))
	got.MustAppendRow(NewInt(-1), NewString("bus"), NewFloat(0))
	if err := got.AppendColumns(cols, 4); err != nil {
		t.Fatal(err)
	}
	if err := got.AppendColumns(cols, src.Len()); err != nil {
		t.Fatal(err)
	}
	want := NewBatch(testSchema(t))
	want.MustAppendRow(NewInt(-1), NewString("bus"), NewFloat(0))
	for _, n := range []int{4, src.Len()} {
		for r := 0; r < n; r++ {
			want.MustAppendRow(src.Row(r)...)
		}
	}
	if got.String() != want.String() || got.Len() != want.Len() {
		t.Fatalf("AppendColumns:\n%v\nwant\n%v", got, want)
	}

	// A kind mismatch is AppendRow's error and leaves the batch as it was.
	bad := [][]Datum{src.Col(0), src.Col(0), src.Col(2)}
	rowErr := NewBatch(testSchema(t)).AppendRow(src.At(0, 0), src.At(0, 0), src.At(0, 2))
	if err := got.AppendColumns(bad, 2); err == nil || rowErr == nil || err.Error() != rowErr.Error() {
		t.Fatalf("kind mismatch: %v, AppendRow says %v", err, rowErr)
	}
	if got.Len() != want.Len() || len(got.Col(0)) != want.Len() {
		t.Fatalf("failed AppendColumns changed the batch: %d rows", got.Len())
	}
	if err := got.AppendColumns(cols[:2], 1); err == nil {
		t.Fatal("width mismatch should error")
	}
}

// TestAppendEncodedCopiesOnlyPayloads: a call copies the TEXT and BYTES
// payloads of its rows into one buffer — one allocation, none for rows
// without such payloads — and the datums keep nothing of src: a frame
// segment or a view record decodes without one copy per frame and
// without copying the fixed-width datums around them.
func TestAppendEncodedCopiesOnlyPayloads(t *testing.T) {
	s := MustSchema(Column{"id", KindInt}, Column{"frame", KindBytes}, Column{"label", KindString})
	rows := [][]Datum{
		{NewInt(1), NewBytes([]byte{1, 2, 3}), NewString("car")},
		{NewInt(2), NewBytes([]byte{}), NewString("")},
		{NewInt(3), NewBytes([]byte(strings.Repeat("f", 100))), NewString("bus")},
	}
	var enc []byte
	for _, r := range rows {
		for _, d := range r {
			enc = d.AppendBinary(enc)
		}
	}
	src := append([]byte(nil), enc...)
	got := NewBatchCapacity(s, len(rows))
	if a := testing.AllocsPerRun(10, func() {
		got.Truncate(0)
		if _, err := got.AppendEncoded(src, len(rows)); err != nil {
			t.Fatal(err)
		}
	}); a > 1 && !raceEnabled {
		t.Errorf("AppendEncoded made %v allocations for three frames and three labels, want the one buffer", a)
	}
	for i := range src {
		src[i] = 0xAA
	}
	for r, row := range rows {
		for c, want := range row {
			if at := got.At(r, c); !Identical(&want, &at) {
				t.Errorf("row %d col %d = %v, want %v", r, c, got.At(r, c), want)
			}
		}
	}

	ids := MustSchema(Column{"id", KindInt}, Column{"area", KindFloat})
	enc = NewFloat(0.5).AppendBinary(NewInt(7).AppendBinary(nil))
	fixed := NewBatchCapacity(ids, 1)
	if a := testing.AllocsPerRun(10, func() {
		fixed.Truncate(0)
		if _, err := fixed.AppendEncoded(enc, 1); err != nil {
			t.Fatal(err)
		}
	}); a > 0 && !raceEnabled {
		t.Errorf("AppendEncoded made %v allocations for a row without payloads, want none", a)
	}
}

// TestAppendEncodedMatchesAppendRow: decoding a stored row record
// straight into the columns equals decoding each datum and appending the
// rows one by one, consumes exactly the record, and on any failure — a
// truncated datum, a kind the column does not accept — leaves the batch
// as it was.
func TestAppendEncodedMatchesAppendRow(t *testing.T) {
	s := testSchema(t)
	rows := [][]Datum{
		{NewInt(1), NewString("car"), NewFloat(0.25)},
		{NewInt(2), Null, NewFloat(0.5)},
		{NewInt(3), NewString(""), Null},
	}
	want := NewBatch(s)
	var enc []byte
	for _, r := range rows {
		want.MustAppendRow(r...)
		for _, d := range r {
			enc = d.AppendBinary(enc)
		}
	}
	got := NewBatchCapacity(s, 1+len(rows))
	got.MustAppendRow(rows[0]...)
	capBefore := cap(got.Col(0))
	src := append(append([]byte(nil), enc...), "trailing bytes stay"...)
	var n int
	var err error
	if a := testing.AllocsPerRun(10, func() {
		got.Truncate(1)
		n, err = got.AppendEncoded(src, len(rows))
	}); a > 1 && !raceEnabled {
		t.Errorf("AppendEncoded made %v allocations for a record with two strings, want the one arena", a)
	}
	if err != nil || n != len(enc) || got.Len() != 1+len(rows) {
		t.Fatalf("AppendEncoded = %d, %v; %d rows; want %d bytes, %d rows", n, err, got.Len(), len(enc), 1+len(rows))
	}
	if cap(got.Col(0)) != capBefore {
		t.Error("AppendEncoded regrew columns that had room")
	}
	// The datums share nothing with the record buffer: a replay may
	// reuse it, and a scribble over it must not show through.
	for i := range src {
		src[i] = 0xAA
	}
	for r := range rows {
		for c := range s {
			if !Equal(got.At(1+r, c), want.At(r, c)) || got.At(1+r, c).Kind() != want.At(r, c).Kind() {
				t.Errorf("row %d col %d = %v, want %v", r, c, got.At(1+r, c), want.At(r, c))
			}
		}
	}

	bad := NewString("id?").AppendBinary(nil)
	for name, src := range map[string][]byte{
		"truncated":     enc[:len(enc)-3],
		"kind mismatch": append(append([]byte(nil), enc[:len(enc)/3]...), bad...),
	} {
		if _, err := got.AppendEncoded(src, len(rows)); err == nil {
			t.Errorf("%s: no error", name)
		}
		for c := range s {
			if got.Len() != 1+len(rows) || len(got.Col(c)) != got.Len() {
				t.Fatalf("%s: batch changed by a failed append: %d rows, column %d holds %d", name, got.Len(), c, len(got.Col(c)))
			}
		}
	}
}
