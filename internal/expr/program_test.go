package expr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eva/internal/types"
)

// fuzzSchema is the input schema of the generated batches. i and j are
// declared INTEGER but also hold floats (AppendRow's numeric mix);
// every column holds NULLs; comparing s with i is the incomparable
// pair.
var fuzzSchema = types.MustSchema(
	types.Column{Name: "i", Kind: types.KindInt},
	types.Column{Name: "j", Kind: types.KindInt},
	types.Column{Name: "f", Kind: types.KindFloat},
	types.Column{Name: "s", Kind: types.KindString},
	types.Column{Name: "t", Kind: types.KindString},
	types.Column{Name: "b", Kind: types.KindBool},
)

func randBatch(r *rand.Rand, rows int) *types.Batch {
	b := types.NewBatch(fuzzSchema)
	null := func(d types.Datum) types.Datum {
		if r.Intn(7) == 0 {
			return types.Null
		}
		return d
	}
	intish := func() types.Datum {
		if r.Intn(5) == 0 {
			return types.NewFloat(float64(r.Intn(7)) - 2.5)
		}
		return types.NewInt(int64(r.Intn(7) - 2))
	}
	words := []string{"", "car", "bus", "van"}
	for k := 0; k < rows; k++ {
		b.MustAppendRow(
			null(intish()), null(intish()),
			null(types.NewFloat(float64(r.Intn(9))/2-1)),
			null(types.NewString(words[r.Intn(len(words))])),
			null(types.NewString(words[r.Intn(len(words))])),
			null(types.NewBool(r.Intn(2) == 0)),
		)
	}
	return b
}

func randValue(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(12) {
		case 0:
			return NewConst(types.NewInt(int64(r.Intn(5) - 1)))
		case 1:
			return NewConst(types.NewFloat(float64(r.Intn(5)) / 2))
		case 2:
			return NewConst(types.NewString([]string{"car", "bus", ""}[r.Intn(3)]))
		case 3:
			return NewConst(types.NewBool(r.Intn(2) == 0))
		case 4:
			if r.Intn(3) == 0 {
				return NewColumn("ghost")
			}
			return NewConst(types.Null)
		case 5:
			if r.Intn(4) == 0 {
				return Star{}
			}
			return NewColumn("B")
		default:
			return NewColumn(fuzzSchema[r.Intn(len(fuzzSchema))].Name)
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		return NewArith(ArithOp(r.Intn(5)), randValue(r, depth-1), randValue(r, depth-1))
	case 2:
		return NewCall([]string{"Neg", "boom", "IsOdd"}[r.Intn(3)], randValue(r, depth-1))
	default:
		return randPred(r, depth)
	}
}

func randPred(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return NewCmp(CmpOp(r.Intn(6)), randValue(r, 0), randValue(r, 0))
	}
	switch r.Intn(9) {
	case 0, 1:
		return NewAnd(randPred(r, depth-1), randPred(r, depth-1))
	case 2, 3:
		return NewOr(randPred(r, depth-1), randPred(r, depth-1))
	case 4:
		return NewNot(randPred(r, depth-1))
	case 5:
		return NewIsNull(randValue(r, depth-1))
	case 6:
		return randValue(r, depth-1) // a value read as a predicate
	default:
		return NewCmp(CmpOp(r.Intn(6)), randValue(r, depth-1), randValue(r, depth-1))
	}
}

// callLog implements the test's three functions and records every
// invocation, so the oracle's and the program's call sequences can be
// compared: neg negates a number, isodd tests an integer, boom fails
// on odd integers.
type callLog struct{ calls []string }

func (l *callLog) CallFn(fn string, args []types.Datum) (types.Datum, error) {
	fn = strings.ToLower(fn)
	l.calls = append(l.calls, fmt.Sprintf("%s%v", fn, args))
	a := args[0]
	switch fn {
	case "neg":
		if a.Kind() == types.KindInt {
			return types.NewInt(-a.Int()), nil
		}
		if a.Kind() == types.KindFloat {
			return types.NewFloat(-a.Float()), nil
		}
		return types.Null, nil
	case "isodd":
		if a.Kind() != types.KindInt {
			return types.Null, nil
		}
		return types.NewBool(a.Int()%2 != 0), nil
	default:
		if a.Kind() == types.KindInt && a.Int()%2 != 0 {
			return types.Null, fmt.Errorf("boom on %s", a)
		}
		return a, nil
	}
}

// rowOracle is the reference evaluator's view of one batch row.
type rowOracle struct {
	*callLog
	b   *types.Batch
	row int
}

func (o rowOracle) Resolve(name string) (types.Datum, bool) {
	c := o.b.Schema().IndexOf(name)
	if c < 0 {
		return types.Null, false
	}
	return o.b.At(o.row, c), true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkProgram compares one bound program with a per-row Eval of e
// over b: the predicate's keep-set, the value vector over a row
// prefix, single rows, the error (text, and the first failing row's)
// and the sequence of function calls.
func checkProgram(t *testing.T, r *rand.Rand, e Expr, p *Program, b *types.Batch) {
	t.Helper()
	n := b.Len()

	var wantSel []int
	var wantErr error
	want := &callLog{}
	for row := 0; row < n && wantErr == nil; row++ {
		ok, err := EvalBool(e, rowOracle{want, b, row})
		if wantErr = err; ok {
			wantSel = append(wantSel, row)
		}
	}
	got := &callLog{}
	sel, err := p.Filter(b, got)
	if errText(err) != errText(wantErr) {
		t.Fatalf("Filter(%s) error = %v, want %v\n%s", e, err, wantErr, b)
	}
	if err == nil && fmt.Sprint(sel) != fmt.Sprint(wantSel) && (len(sel) > 0 || len(wantSel) > 0) {
		t.Fatalf("Filter(%s) = %v, want %v\n%s", e, sel, wantSel, b)
	}
	if fmt.Sprint(got.calls) != fmt.Sprint(want.calls) {
		t.Fatalf("Filter(%s) calls %v, want %v", e, got.calls, want.calls)
	}

	rows := n
	if n > 0 && r.Intn(3) == 0 {
		rows = r.Intn(n + 1) // a prefix, down to the empty selection
	}
	wantVals := make([]types.Datum, 0, rows)
	wantErr, wantRow := error(nil), 0
	want = &callLog{}
	for row := 0; row < rows; row++ {
		v, err := Eval(e, rowOracle{want, b, row})
		if err != nil {
			wantErr, wantRow = err, row
			break
		}
		wantVals = append(wantVals, v)
	}
	got = &callLog{}
	vals, failed, err := p.Eval(b, rows, got)
	if errText(err) != errText(wantErr) || (err != nil && failed != wantRow) {
		t.Fatalf("Eval(%s) error = %v at row %d, want %v at row %d\n%s", e, err, failed, wantErr, wantRow, b)
	}
	if err == nil {
		for row, w := range wantVals {
			if g := vals[row]; g.Kind() != w.Kind() || g.String() != w.String() {
				t.Fatalf("Eval(%s) row %d = %s, want %s\n%s", e, row, g, w, b)
			}
		}
	}
	if fmt.Sprint(got.calls) != fmt.Sprint(want.calls) {
		t.Fatalf("Eval(%s) calls %v, want %v", e, got.calls, want.calls)
	}

	if n > 0 {
		row := r.Intn(n)
		w, wantErr := Eval(e, rowOracle{&callLog{}, b, row})
		g, err := p.EvalRow(b, row, &callLog{})
		if errText(err) != errText(wantErr) || (err == nil && (g.Kind() != w.Kind() || g.String() != w.String())) {
			t.Fatalf("EvalRow(%s, %d) = %s, %v, want %s, %v\n%s", e, row, g, err, w, wantErr, b)
		}
	}
}

// FuzzProgramMatchesEval is the differential test of the bound,
// column-at-a-time evaluator against the row-at-a-time reference: a
// seeded random expression — nested AND/OR/NOT, all six comparisons,
// IS NULL, arithmetic including / 0 and % 0, column against column,
// unknown columns, *, function calls, non-boolean predicates — over
// seeded random batches (NULLs, INTEGER columns holding floats,
// incomparable kinds, the empty batch) must agree with Eval on rows,
// values, error and call sequence. One program runs three batches of
// different sizes, so scratch reuse across batches is covered too.
func FuzzProgramMatchesEval(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(9))
	f.Add(int64(14), uint8(3), uint8(40))
	f.Add(int64(2022), uint8(4), uint8(0))
	f.Add(int64(-3), uint8(1), uint8(1))
	f.Add(int64(77), uint8(5), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, depth, rows uint8) {
		r := rand.New(rand.NewSource(seed))
		e := randPred(r, int(depth%6))
		if r.Intn(4) == 0 {
			e = randValue(r, int(depth%6))
		}
		p := Bind(e, fuzzSchema, nil)
		for _, n := range []int{int(rows), int(rows) / 3, int(rows) + 5} {
			checkProgram(t, r, e, p, randBatch(r, n))
		}
	})
}

// TestProgramMatchesEvalSeeds runs the differential check over a fixed
// sweep of seeds, so plain `go test` covers a few thousand generated
// expressions without the fuzzing engine.
func TestProgramMatchesEvalSeeds(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := randPred(r, int(seed%5))
		p := Bind(e, fuzzSchema, nil)
		for _, n := range []int{0, 1 + int(seed%23), 3} {
			checkProgram(t, r, e, p, randBatch(r, n))
		}
	}
}

func TestBindKindsAndFolding(t *testing.T) {
	fns := func(fn string) types.Kind {
		if fn == "area" {
			return types.KindFloat
		}
		return types.KindNull
	}
	kinds := []struct {
		e    Expr
		want types.Kind
	}{
		{NewColumn("S"), types.KindString},
		{NewColumn("ghost"), types.KindNull},
		{NewConst(types.NewInt(1)), types.KindInt},
		{NewCmp(OpLt, NewColumn("i"), NewColumn("f")), types.KindBool},
		{NewArith(OpAdd, NewColumn("i"), NewColumn("j")), types.KindInt},
		{NewArith(OpMul, NewColumn("i"), NewColumn("f")), types.KindFloat},
		{NewArith(OpAdd, NewColumn("i"), NewColumn("s")), types.KindNull},
		{NewCall("Area", NewColumn("s")), types.KindFloat},
		{NewArith(OpMul, NewCall("AREA", NewColumn("s")), NewConst(types.NewInt(2))), types.KindFloat},
		{NewCall("mystery"), types.KindNull},
		{Star{}, types.KindNull},
	}
	for _, tc := range kinds {
		if got := Bind(tc.e, fuzzSchema, fns).Kind(); got != tc.want {
			t.Errorf("Bind(%s).Kind() = %s, want %s", tc.e, got, tc.want)
		}
	}

	if !Bind(NewCall("f"), fuzzSchema, nil).HasCalls() || Bind(NewColumn("i"), fuzzSchema, nil).HasCalls() {
		t.Error("HasCalls wrong")
	}

	// 1 + 2 < 4 folds to TRUE; 1 / 0 stays, and fails only when a row
	// reaches it.
	three := NewArith(OpAdd, NewConst(types.NewInt(1)), NewConst(types.NewInt(2)))
	if p := Bind(NewCmp(OpLt, three, NewConst(types.NewInt(4))), fuzzSchema, nil); p.root.op != opConst || !p.root.val.Bool() {
		t.Errorf("constant comparison did not fold: %+v", p.root)
	}
	div := NewArith(OpDiv, NewConst(types.NewInt(1)), NewConst(types.NewInt(0)))
	p := Bind(NewAnd(NewCmp(OpGt, NewColumn("i"), NewConst(types.NewInt(100))), NewCmp(OpEq, div, NewConst(types.NewInt(1)))), fuzzSchema, nil)
	b := randBatch(rand.New(rand.NewSource(5)), 20)
	if sel, err := p.Filter(b, nil); err != nil || len(sel) != 0 {
		t.Errorf("short-circuited 1/0: sel %v, err %v", sel, err)
	}
	p = Bind(NewCmp(OpEq, div, NewConst(types.NewInt(1))), fuzzSchema, nil)
	if _, err := p.Filter(b, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("1/0 = 1: err %v", err)
	}
	if sel, err := p.Filter(types.NewBatch(fuzzSchema), nil); err != nil || len(sel) != 0 {
		t.Errorf("1/0 = 1 over no rows: sel %v, err %v", sel, err)
	}
	// FALSE AND ghost never evaluates ghost, on either path.
	p = Bind(NewAnd(NewConst(types.NewBool(false)), NewColumn("ghost")), fuzzSchema, nil)
	if sel, err := p.Filter(b, nil); err != nil || len(sel) != 0 || p.root.op != opConst {
		t.Errorf("FALSE AND ghost: sel %v, err %v, root %+v", sel, err, p.root)
	}
}

// TestProgramErrorIsFirstFailingRows pins the error-order rule on a
// case the column order would get wrong: the left conjunct fails on a
// later row than the right one.
func TestProgramErrorIsFirstFailingRow(t *testing.T) {
	sch := types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	b := types.NewBatch(sch)
	for _, row := range [][2]int64{{1, 1}, {1, 0}, {0, 1}, {1, 1}} {
		b.MustAppendRow(types.NewInt(row[0]), types.NewInt(row[1]))
	}
	// 10/a > 0 fails on row 2, 10/d > 0 on row 1: the row path stops
	// at row 1, in the right conjunct.
	div := func(col string) Expr {
		return NewCmp(OpGt, NewArith(OpDiv, NewConst(types.NewInt(10)), NewColumn(col)), NewConst(types.NewInt(0)))
	}
	_, failed, err := Bind(NewAnd(div("a"), div("d")), sch, nil).Eval(b, b.Len(), nil)
	if err == nil || failed != 1 {
		t.Fatalf("failed row = %d, err = %v; want row 1", failed, err)
	}
	if _, err := Bind(NewAnd(div("a"), div("d")), sch, nil).Filter(b, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Filter err = %v", err)
	}
}

func BenchmarkProgramFilter(b *testing.B) {
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
		types.Column{Name: "area", Kind: types.KindFloat},
	)
	batch := types.NewBatch(sch)
	labels := []string{"car", "bus", "van"}
	for i := 0; i < 4096; i++ {
		batch.MustAppendRow(types.NewInt(int64(i)), types.NewString(labels[i%3]), types.NewFloat(float64(i%100)/100))
	}
	pred := NewAnd(NewAnd(
		NewCmp(OpLt, NewColumn("id"), NewConst(types.NewInt(3000))),
		NewCmp(OpEq, NewColumn("label"), NewConst(types.NewString("car")))),
		NewCmp(OpGt, NewColumn("area"), NewConst(types.NewFloat(0.3))))
	b.Run("program", func(b *testing.B) {
		p := Bind(pred, sch, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Filter(batch, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch.Len(); r++ {
				if _, err := EvalBool(pred, rowOracle{nil, batch, r}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
