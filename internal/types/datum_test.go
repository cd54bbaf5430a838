package types

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDatumKinds(t *testing.T) {
	tests := []struct {
		d    Datum
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{NewBool(true), KindBool, "TRUE"},
		{NewBool(false), KindBool, "FALSE"},
		{NewInt(-42), KindInt, "-42"},
		{NewFloat(0.25), KindFloat, "0.25"},
		{NewString("car"), KindString, "'car'"},
		{NewBytes([]byte{0xde, 0xad}), KindBytes, "x'dead'"},
	}
	for _, tt := range tests {
		if got := tt.d.Kind(); got != tt.kind {
			t.Errorf("%v: kind = %v, want %v", tt.d, got, tt.kind)
		}
		if got := tt.d.String(); got != tt.str {
			t.Errorf("kind %v: String() = %q, want %q", tt.kind, got, tt.str)
		}
	}
}

func TestDatumAccessors(t *testing.T) {
	if !NewBool(true).Bool() {
		t.Error("Bool(true) lost value")
	}
	if got := NewInt(7).Int(); got != 7 {
		t.Errorf("Int = %d, want 7", got)
	}
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("Int->Float = %v, want 7.0", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float = %v, want 2.5", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("Str = %q, want x", got)
	}
	if got := NewBytes([]byte("ab")).Bytes(); string(got) != "ab" {
		t.Errorf("Bytes = %q, want ab", got)
	}
}

func TestDatumAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string datum did not panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Datum
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBytes([]byte{1}), NewBytes([]byte{1, 0}), -1},
		{NewBytes([]byte{2}), NewBytes([]byte{1, 9}), 1},
		{NewBytes([]byte{5, 5}), NewBytes([]byte{5, 5}), 0},
	}
	for _, tt := range tests {
		if got := Compare(tt.a, tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare(int, string) did not panic")
		}
	}()
	Compare(NewInt(1), NewString("x"))
}

func TestComparable(t *testing.T) {
	if !Comparable(NewInt(1), NewFloat(2)) {
		t.Error("int/float should be comparable")
	}
	if !Comparable(Null, NewString("x")) {
		t.Error("null should compare with anything")
	}
	if Comparable(NewInt(1), NewString("x")) {
		t.Error("int/string should not be comparable")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("3 != 3.0")
	}
	if Equal(NewInt(3), NewString("3")) {
		t.Error("3 == '3'")
	}
	if Equal(Null, NewInt(0)) {
		t.Error("NULL == 0")
	}
	if !Equal(Null, Null) {
		t.Error("NULL != NULL")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	datums := []Datum{
		Null,
		NewBool(true),
		NewBool(false),
		NewInt(0),
		NewInt(-1 << 62),
		NewFloat(math.Pi),
		NewFloat(math.Inf(1)),
		NewString(""),
		NewString("night-street"),
		NewBytes(nil),
		NewBytes([]byte{0, 1, 2, 255}),
	}
	var buf []byte
	for _, d := range datums {
		buf = d.AppendBinary(buf)
	}
	off := 0
	for i, want := range datums {
		got, n, err := decodeDatum(buf[off:])
		if err != nil {
			t.Fatalf("decode datum %d: %v", i, err)
		}
		if !Equal(got, want) || got.Kind() != want.Kind() {
			t.Errorf("datum %d: round trip %v -> %v", i, want, got)
		}
		if n != want.EncodedSize() {
			t.Errorf("datum %d: consumed %d bytes, EncodedSize says %d", i, n, want.EncodedSize())
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("trailing bytes after decode: %d", len(buf)-off)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte) bool {
		for _, d := range []Datum{NewInt(i), NewFloat(fl), NewString(s), NewBytes(b)} {
			if math.IsNaN(fl) && d.Kind() == KindFloat {
				continue // NaN != NaN by design
			}
			enc := d.AppendBinary(nil)
			got, n, err := decodeDatum(enc)
			if err != nil || n != len(enc) || !Equal(got, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindInt)},                // truncated payload
		{byte(KindString), 5, 0, 0, 0}, // length beyond input
		{byte(KindString), 2, 0, 0, 0, 'a'},
		{200}, // unknown kind
	}
	for i, c := range cases {
		if _, _, err := decodeDatum(c); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindFloat.String() != "FLOAT" || KindBytes.String() != "BYTES" {
		t.Error("kind names changed")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// TestDatumLayout pins the resident form: three words, NULL as the zero
// value, and the corner values of the (pointer, length) pair — the empty
// string, a nil and an empty-but-non-nil byte slice — surviving both the
// accessors and the binary encoding.
func TestDatumLayout(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got > 24 {
		t.Errorf("Datum is %d bytes, want at most 24", got)
	}
	var zero Datum
	if !zero.IsNull() || zero != Null || zero.String() != "NULL" {
		t.Errorf("zero Datum = %v, want NULL", zero)
	}
	if NewBytes(nil).Bytes() != nil {
		t.Error("a nil BYTES datum came back non-nil")
	}
	if b := NewBytes([]byte{}).Bytes(); b == nil || len(b) != 0 {
		t.Errorf("an empty BYTES datum came back %v (nil: %v)", b, b == nil)
	}
	if b := NewBytes(make([]byte, 2, 8)).Bytes(); len(b) != 2 || cap(b) != 2 {
		t.Errorf("BYTES datum came back with len %d cap %d, want 2 and 2", len(b), cap(b))
	}
	for _, want := range []Datum{NewString(""), NewBytes(nil), NewBytes([]byte{}), NewString("a"), NewBytes([]byte{0})} {
		enc := want.AppendBinary(nil)
		got, n, err := decodeDatum(enc)
		if err != nil || n != len(enc) || got.Kind() != want.Kind() || !Equal(got, want) {
			t.Errorf("%v: round trip gave %v, %d of %d bytes, %v", want, got, n, len(enc), err)
		}
		if n, ok := got.MatchEncoded(append(enc, 0x55)); !ok || n != len(enc) {
			t.Errorf("%v: MatchEncoded against its own encoding = %d, %v", want, n, ok)
		}
		if _, ok := got.MatchEncoded(enc[:len(enc)-1]); ok {
			t.Errorf("%v: MatchEncoded accepted a truncated encoding", want)
		}
	}
	if _, ok := (&Datum{kind: KindInt, v: 1}).MatchEncoded(NewFloat(1).AppendBinary(nil)); ok {
		t.Error("MatchEncoded equated INTEGER 1 with FLOAT 1: equality is of encodings, not of values")
	}
	// The poison sentinel still trips every typed accessor (the evadebug
	// suite relies on it) and still is not NULL.
	if poisonDatum.IsNull() {
		t.Error("poisonDatum reads as NULL")
	}
	for name, read := range map[string]func(){
		"Int": func() { poisonDatum.Int() }, "Str": func() { poisonDatum.Str() },
		"Bytes": func() { poisonDatum.Bytes() }, "Float": func() { poisonDatum.Float() }, "Bool": func() { poisonDatum.Bool() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on the poison datum did not panic", name)
				}
			}()
			read()
		}()
	}
}

// decodeDatum decodes one datum produced by AppendBinary the way
// Batch.AppendEncoded does, and returns it with the number of bytes
// consumed.
func decodeDatum(src []byte) (Datum, int, error) {
	k, n, err := datumSpan(src)
	if err != nil {
		return Null, 0, err
	}
	arena := make([]byte, 0, n)
	return decodeSpan(k, src[:n], &arena), n, nil
}
