package symbolic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The canonical binary form of a DNF, the payload of the view log's
// aggregated-predicate record:
//
//	[version:1] [nConj:uvarint] conjunct*
//	conjunct   = [nTerms:uvarint] term*             terms ascending by name
//	term       = [len:uvarint][name] [kind:1] body
//	body (kind 0, numeric)       = [n:uvarint] ([lo:8][hi:8][open:1])*
//	body (kind 1 ∈ / 2 ∉, categorical) = [n:uvarint] ([len:uvarint][value])*   values ascending
//
// Bounds are IEEE-754 bit patterns, little-endian; open is bit 0 for an
// open lower bound, bit 1 for an open upper bound. Conjunct order is
// kept: a decoded predicate is the encoded one conjunct for conjunct,
// so it renders, counts atoms and reduces exactly as before it was
// written. The decoder accepts only what the encoder emits for a
// predicate in normal form — sorted distinct terms and values,
// normalized non-empty interval sets, no full constraint, no
// unsatisfiable conjunct — so one predicate has one encoding.
const (
	codecVersion = 1

	codecNumeric = 0
	codecIn      = 1
	codecNotIn   = 2

	intervalLen = 17
)

// AppendBinary appends the canonical encoding of d to buf.
func (d DNF) AppendBinary(buf []byte) []byte {
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(d.conjs)))
	for _, c := range d.conjs {
		terms := c.Terms()
		buf = binary.AppendUvarint(buf, uint64(len(terms)))
		for _, t := range terms {
			buf = appendString(buf, t)
			con := c.cons[t]
			if con.Numeric {
				buf = append(buf, codecNumeric)
				buf = binary.AppendUvarint(buf, uint64(len(con.Ivs.ivs)))
				for _, iv := range con.Ivs.ivs {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(iv.Lo))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(iv.Hi))
					var open byte
					if iv.LoOpen {
						open |= 1
					}
					if iv.HiOpen {
						open |= 2
					}
					buf = append(buf, open)
				}
				continue
			}
			kind := byte(codecIn)
			if con.Cat.Negated {
				kind = codecNotIn
			}
			buf = append(buf, kind)
			vals := con.Cat.Sorted()
			buf = binary.AppendUvarint(buf, uint64(len(vals)))
			for _, v := range vals {
				buf = appendString(buf, v)
			}
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

var errCodecShort = errors.New("symbolic: decode predicate: truncated input")

// DecodeDNF decodes a predicate written by AppendBinary. Anything else
// — a truncated or trailing byte, an unknown version or kind, a form
// the encoder never emits — is an error; no input makes it panic, and
// it allocates no more than a small multiple of len(data).
func DecodeDNF(data []byte) (DNF, error) {
	r := codecReader{data: data}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return False(), fmt.Errorf("symbolic: decode predicate: unknown version %d", v)
	}
	// Every count is checked against the bytes left before anything is
	// sized by it: a conjunct, term, interval or value takes at least one.
	d := DNF{}
	for n := r.count(1); n > 0 && r.err == nil; n-- {
		c := NewConjunct()
		prev := ""
		for k, nt := 0, r.count(3); k < nt && r.err == nil; k++ {
			term := r.string()
			if k > 0 && term <= prev {
				r.fail("terms out of order")
			}
			prev = term
			con := r.constraint()
			if r.err == nil && (con.Full() || con.Empty()) {
				r.fail("constraint on %q is not in normal form", term)
			}
			c.cons[term] = con
		}
		d.conjs = append(d.conjs, c)
	}
	if r.err == nil && len(r.data) > 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	if r.err != nil {
		return False(), r.err
	}
	return d, nil
}

// codecReader consumes data front to back; the first failure sticks
// and every later read returns zero values.
type codecReader struct {
	data []byte
	err  error
}

func (r *codecReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("symbolic: decode predicate: "+format, args...)
	}
}

func (r *codecReader) take(n int) []byte {
	if r.err != nil || n > len(r.data) {
		if r.err == nil {
			r.err = errCodecShort
		}
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *codecReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// count reads an element count whose elements take at least min bytes
// each, so a count the remaining input cannot hold is refused here.
func (r *codecReader) count(min int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errCodecShort
		return 0
	}
	if n > 1 && r.data[n-1] == 0 {
		// A padded varint: the encoder writes the shortest form only.
		r.fail("count %d in a non-minimal encoding", v)
		return 0
	}
	r.data = r.data[n:]
	if v > uint64(len(r.data)/min) {
		r.err = errCodecShort
		return 0
	}
	return int(v)
}

func (r *codecReader) string() string { return string(r.take(r.count(1))) }

func (r *codecReader) constraint() Constraint {
	switch kind := r.byte(); kind {
	case codecNumeric:
		n := r.count(intervalLen)
		ivs := make([]Interval, 0, n)
		for ; n > 0 && r.err == nil; n-- {
			b := r.take(intervalLen)
			if b == nil {
				break
			}
			iv := Interval{
				Lo:     math.Float64frombits(binary.LittleEndian.Uint64(b)),
				Hi:     math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
				LoOpen: b[16]&1 != 0,
				HiOpen: b[16]&2 != 0,
			}
			if b[16] > 3 || iv.Lo != iv.Lo || iv.Hi != iv.Hi {
				r.fail("malformed interval")
			}
			ivs = append(ivs, iv)
		}
		set := NewIntervalSet(ivs...)
		if r.err == nil && !set.Equal(IntervalSet{ivs: ivs}) {
			r.fail("interval set is not normalized")
		}
		return NumConstraint(IntervalSet{ivs: ivs})
	case codecIn, codecNotIn:
		n := r.count(1)
		cat := CatSet{Negated: kind == codecNotIn, Vals: make(map[string]struct{}, n)}
		prev := ""
		for k := 0; k < n && r.err == nil; k++ {
			v := r.string()
			if k > 0 && v <= prev {
				r.fail("values out of order")
			}
			prev = v
			cat.Vals[v] = struct{}{}
		}
		return CatConstraint(cat)
	default:
		if r.err == nil {
			r.fail("unknown constraint kind %d", kind)
		}
		return Constraint{}
	}
}

// Equal reports whether the predicates are the same formula: the same
// conjuncts, in the same order, each constraining the same terms
// identically. Equivalent predicates written differently are not Equal.
// lint:testonly the codec round-trip tests compare formulas
func (d DNF) Equal(o DNF) bool {
	if len(d.conjs) != len(o.conjs) {
		return false
	}
	for i, c := range d.conjs {
		oc := o.conjs[i]
		if len(c.cons) != len(oc.cons) {
			return false
		}
		for t, con := range c.cons {
			if ocon, ok := oc.cons[t]; !ok || !con.Equal(ocon) {
				return false
			}
		}
	}
	return true
}
