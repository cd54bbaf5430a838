// Package types defines the value model shared by every layer of EVA:
// scalar datums, column schemas, and columnar batches. The execution
// engine, storage engine, and expression evaluator all traffic in these
// types, so the package has no dependencies on the rest of the system.
package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the scalar types supported by EVA-QL.
type Kind uint8

// The supported scalar kinds. KindNull is the type of the NULL datum and
// also the marker the conditional Apply operator uses to detect rows that
// are missing from a materialized view.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
)

// String returns the EVA-QL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBytes:
		return "BYTES"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind order as numbers.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// accepts reports whether a column declared as kind k may hold a datum
// of kind got — the rule every batch append checks: its own kind, any
// numeric kind in a numeric column, and NULL anywhere.
func (k Kind) accepts(got Kind) bool {
	return got == k || got == KindNull || (k.Numeric() && got.Numeric())
}

// Datum is a single immutable scalar value. The zero value is NULL.
//
// Datum is a small value type (no pointers for the numeric kinds) so that
// batches of datums stay cache-friendly; strings and byte slices share
// their backing storage and must not be mutated after construction.
type Datum struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    []byte
}

// Null is the NULL datum.
var Null = Datum{}

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, i: i}
}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBytes returns a bytes datum. The slice is retained, not copied.
func NewBytes(v []byte) Datum { return Datum{kind: KindBytes, b: v} }

// Kind returns the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Bool returns the boolean value. It panics unless Kind is KindBool.
func (d Datum) Bool() bool {
	d.mustBe(KindBool)
	return d.i != 0
}

// Int returns the integer value. It panics unless Kind is KindInt.
func (d Datum) Int() int64 {
	d.mustBe(KindInt)
	return d.i
}

// Float returns the float value of a numeric datum (KindInt or KindFloat).
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return d.f
	case KindInt:
		return float64(d.i)
	}
	panic(fmt.Sprintf("types: Float on %s datum", d.kind))
}

// Str returns the string value. It panics unless Kind is KindString.
func (d Datum) Str() string {
	d.mustBe(KindString)
	return d.s
}

// Bytes returns the byte-slice value. It panics unless Kind is KindBytes.
func (d Datum) Bytes() []byte {
	d.mustBe(KindBytes)
	return d.b
}

// NumericValue returns the value of a numeric datum as Compare orders
// it — an INTEGER widened to float64 — and whether d is numeric. With
// StringValue it is the kind guard of the expression kernels: one
// kind-byte test per datum, through a pointer so the 64-byte value is
// never copied.
func (d *Datum) NumericValue() (float64, bool) {
	switch d.kind {
	case KindInt:
		return float64(d.i), true
	case KindFloat:
		return d.f, true
	}
	return 0, false
}

// StringValue returns the value of a TEXT datum and whether d is one.
func (d *Datum) StringValue() (string, bool) { return d.s, d.kind == KindString }

func (d Datum) mustBe(k Kind) {
	if d.kind != k {
		panic(fmt.Sprintf("types: %s datum accessed as %s", d.kind, k))
	}
}

// Comparable reports whether two datums can be compared with Compare.
// NULL compares with everything (ordering first); numerics compare with
// each other; otherwise kinds must match.
func Comparable(a, b Datum) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return true
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		return true
	}
	return a.kind == b.kind
}

// Compare orders two datums: -1, 0, or +1. NULL sorts before everything.
// Numeric kinds compare by value (an int compares equal to the same float).
// Compare panics on incomparable kinds; use Comparable to pre-check.
func Compare(a, b Datum) int {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0
	case a.kind == KindNull:
		return -1
	case b.kind == KindNull:
		return 1
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		panic(fmt.Sprintf("types: comparing %s with %s", a.kind, b.kind))
	}
	switch a.kind {
	case KindBool:
		switch {
		case a.i == b.i:
			return 0
		case a.i < b.i:
			return -1
		default:
			return 1
		}
	case KindString:
		switch {
		case a.s == b.s:
			return 0
		case a.s < b.s:
			return -1
		default:
			return 1
		}
	case KindBytes:
		return compareBytes(a.b, b.b)
	}
	panic(fmt.Sprintf("types: comparing %s datums", a.kind))
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) == len(b):
		return 0
	case len(a) < len(b):
		return -1
	default:
		return 1
	}
}

// Equal reports value equality. NULL equals only NULL.
func Equal(a, b Datum) bool {
	if !Comparable(a, b) {
		return false
	}
	return Compare(a, b) == 0
}

// String renders the datum for display and for symbolic term names.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KindString:
		return "'" + d.s + "'"
	case KindBytes:
		return fmt.Sprintf("x'%x'", d.b)
	default:
		return fmt.Sprintf("Datum(%d)", uint8(d.kind))
	}
}

// AppendBinary appends a canonical binary encoding of the datum to dst.
// The encoding is self-delimiting and kind-prefixed, so it is suitable
// both for hashing (FunCache keys) and for the storage engine.
func (d Datum) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(d.kind))
	switch d.kind {
	case KindNull:
	case KindBool, KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d.i))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.f))
	case KindString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.s)))
		dst = append(dst, d.s...)
	case KindBytes:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.b)))
		dst = append(dst, d.b...)
	}
	return dst
}

// DecodeDatum decodes a datum produced by AppendBinary and returns it
// with the number of bytes consumed.
func DecodeDatum(src []byte) (Datum, int, error) {
	if len(src) == 0 {
		return Null, 0, fmt.Errorf("types: decode datum: empty input")
	}
	k := Kind(src[0])
	rest := src[1:]
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindBool, KindInt:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: decode %s: short input", k)
		}
		v := int64(binary.LittleEndian.Uint64(rest))
		return Datum{kind: k, i: v}, 9, nil
	case KindFloat:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: decode %s: short input", k)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		return NewFloat(v), 9, nil
	case KindString, KindBytes:
		if len(rest) < 4 {
			return Null, 0, fmt.Errorf("types: decode %s: short input", k)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if len(rest) < 4+n {
			return Null, 0, fmt.Errorf("types: decode %s: want %d bytes, have %d", k, n, len(rest)-4)
		}
		body := rest[4 : 4+n]
		if k == KindString {
			return NewString(string(body)), 5 + n, nil
		}
		cp := make([]byte, n)
		copy(cp, body)
		return NewBytes(cp), 5 + n, nil
	default:
		return Null, 0, fmt.Errorf("types: decode datum: unknown kind %d", src[0])
	}
}

// EncodedSize returns the number of bytes AppendBinary will produce.
// The storage engine uses it to account for the materialized-view
// footprint without re-encoding.
func (d Datum) EncodedSize() int {
	switch d.kind {
	case KindNull:
		return 1
	case KindBool, KindInt, KindFloat:
		return 9
	case KindString:
		return 5 + len(d.s)
	case KindBytes:
		return 5 + len(d.b)
	default:
		return 1
	}
}
