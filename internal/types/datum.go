// Package types defines the value model shared by every layer of EVA:
// scalar datums, column schemas, and columnar batches. The execution
// engine, storage engine, and expression evaluator all traffic in these
// types, so the package has no dependencies on the rest of the system.
package types

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
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
// Datum is three words, 24 bytes, one of them a pointer: v holds the
// INTEGER / BOOLEAN value or the FLOAT's IEEE-754 bits, and for TEXT
// and BYTES the length of the data p points at (p is nil otherwise).
// Every column, batch copy, view chunk and GC scan is made of these, so
// the string and slice headers a datum would otherwise carry side by
// side are folded into (p, v) — which is why this file, and no other
// outside bench/, imports unsafe (`make check` enforces it). Strings and
// byte slices share their backing storage and must not be mutated after
// construction; a BYTES datum gives its slice back with cap == len.
type Datum struct {
	p    unsafe.Pointer
	v    uint64
	kind Kind
}

// Null is the NULL datum.
var Null = Datum{}

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i uint64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, v: i}
}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, v: uint64(v)} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, v: math.Float64bits(v)} }

// NewString returns a string datum.
func NewString(v string) Datum {
	return Datum{kind: KindString, p: unsafe.Pointer(unsafe.StringData(v)), v: uint64(len(v))}
}

// NewBytes returns a bytes datum. The slice is retained, not copied.
func NewBytes(v []byte) Datum {
	return Datum{kind: KindBytes, p: unsafe.Pointer(unsafe.SliceData(v)), v: uint64(len(v))}
}

// str and bytes rebuild the TEXT / BYTES value from (p, v); the caller
// has checked the kind. A nil slice comes back nil, an empty one empty.
func (d *Datum) str() string   { return unsafe.String((*byte)(d.p), int(d.v)) }
func (d *Datum) bytes() []byte { return unsafe.Slice((*byte)(d.p), int(d.v)) }

// Kind returns the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Bool returns the boolean value. It panics unless Kind is KindBool.
func (d Datum) Bool() bool {
	d.mustBe(KindBool)
	return d.v != 0
}

// Int returns the integer value. It panics unless Kind is KindInt.
func (d Datum) Int() int64 {
	d.mustBe(KindInt)
	return int64(d.v)
}

// Float returns the float value of a numeric datum (KindInt or KindFloat).
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return math.Float64frombits(d.v)
	case KindInt:
		return float64(int64(d.v))
	}
	panic(fmt.Sprintf("types: Float on %s datum", d.kind))
}

// Str returns the string value. It panics unless Kind is KindString.
func (d Datum) Str() string {
	d.mustBe(KindString)
	return d.str()
}

// Bytes returns the byte-slice value. It panics unless Kind is KindBytes.
func (d Datum) Bytes() []byte {
	d.mustBe(KindBytes)
	return d.bytes()
}

// NumericValue returns the value of a numeric datum as Compare orders
// it — an INTEGER widened to float64 — and whether d is numeric. With
// StringValue it is the kind guard of the expression kernels: one
// kind-byte test per datum, through a pointer so the value is never
// copied.
func (d *Datum) NumericValue() (float64, bool) {
	switch d.kind {
	case KindInt:
		return float64(int64(d.v)), true
	case KindFloat:
		return math.Float64frombits(d.v), true
	}
	return 0, false
}

// StringValue returns the value of a TEXT datum and whether d is one.
func (d *Datum) StringValue() (string, bool) {
	if d.kind != KindString {
		return "", false
	}
	return d.str(), true
}

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
			return 0 // NaN included, unlike cmp.Compare
		}
	}
	if a.kind != b.kind {
		panic(fmt.Sprintf("types: comparing %s with %s", a.kind, b.kind))
	}
	switch a.kind {
	case KindBool:
		return cmp.Compare(int64(a.v), int64(b.v))
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindBytes:
		return bytes.Compare(a.bytes(), b.bytes())
	}
	panic(fmt.Sprintf("types: comparing %s datums", a.kind))
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
		if d.v != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(int64(d.v), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(d.v), 'g', -1, 64)
	case KindString:
		return "'" + d.str() + "'"
	case KindBytes:
		return fmt.Sprintf("x'%x'", d.bytes())
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
	case KindBool, KindInt, KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, d.v)
	case KindString, KindBytes:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d.v))
		dst = append(dst, d.bytes()...)
	}
	return dst
}

// DecodeDatum decodes a datum produced by AppendBinary and returns it
// with the number of bytes consumed. The datum shares nothing with src.
func DecodeDatum(src []byte) (Datum, int, error) {
	k, n, err := datumSpan(src)
	if err != nil {
		return Null, 0, err
	}
	return decodeSpan(k, src[:n], ""), n, nil
}

// datumSpan checks the encoded datum src begins with and returns its
// kind and length, without building it.
func datumSpan(src []byte) (Kind, int, error) {
	if len(src) == 0 {
		return KindNull, 0, fmt.Errorf("types: decode datum: empty input")
	}
	k := Kind(src[0])
	switch k {
	case KindNull:
		return k, 1, nil
	case KindBool, KindInt, KindFloat:
		if len(src) < 9 {
			return k, 0, fmt.Errorf("types: decode %s: short input", k)
		}
		return k, 9, nil
	case KindString, KindBytes:
		if len(src) < 5 {
			return k, 0, fmt.Errorf("types: decode %s: short input", k)
		}
		n := int(binary.LittleEndian.Uint32(src[1:]))
		if len(src) < 5+n {
			return k, 0, fmt.Errorf("types: decode %s: want %d bytes, have %d", k, n, len(src)-5)
		}
		return k, 5 + n, nil
	default:
		return k, 0, fmt.Errorf("types: decode datum: unknown kind %d", src[0])
	}
}

// decodeSpan builds the datum of kind k that datumSpan measured as src.
// text, when not empty, is src as a string the caller made once for
// many datums: a TEXT datum is then cut out of it instead of copied.
func decodeSpan(k Kind, src []byte, text string) Datum {
	switch k {
	case KindBool, KindInt, KindFloat:
		return Datum{kind: k, v: binary.LittleEndian.Uint64(src[1:])}
	case KindString:
		if text == "" {
			text = string(src)
		}
		return NewString(text[5:])
	case KindBytes:
		return NewBytes(bytes.Clone(src[5:]))
	}
	return Null
}

// MatchEncoded reports whether src begins with d's AppendBinary
// encoding, and that encoding's length: equality of a stored datum with
// an encoded one, as the view's key index defines it, without encoding
// the one or decoding the other.
func (d *Datum) MatchEncoded(src []byte) (int, bool) {
	if len(src) == 0 || src[0] != byte(d.kind) {
		return 0, false
	}
	switch d.kind {
	case KindBool, KindInt, KindFloat:
		return 9, len(src) >= 9 && binary.LittleEndian.Uint64(src[1:]) == d.v
	case KindString, KindBytes:
		n := 5 + int(d.v)
		return n, len(src) >= n && binary.LittleEndian.Uint32(src[1:]) == uint32(d.v) && string(src[5:n]) == d.str()
	}
	return 1, true
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
	case KindString, KindBytes:
		return 5 + int(d.v)
	default:
		return 1
	}
}
