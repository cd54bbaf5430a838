package vision

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// FormatBBox renders normalized box coordinates in the canonical
// textual form that flows through the bbox column: "x,y,w,h" with four
// decimal places, byte for byte what fmt.Sprintf("%.4f,%.4f,%.4f,%.4f")
// prints.
// lint:testonly tests build bbox keys; the engine appends with appendBBox
func FormatBBox(x, y, w, h float64) string {
	var buf [96]byte
	return string(appendBBox(buf[:0], x, y, w, h))
}

func appendBBox(dst []byte, x, y, w, h float64) []byte {
	dst = appendFixed4(dst, x)
	dst = append(dst, ',')
	dst = appendFixed4(dst, y)
	dst = append(dst, ',')
	dst = appendFixed4(dst, w)
	dst = append(dst, ',')
	return appendFixed4(dst, h)
}

// appendFixed4 appends x as %.4f prints it. strconv formats 'f' with a
// fixed precision through its arbitrary-precision decimal, whatever the
// value; a positive normal float64 is x = m·2⁻ˢ with m < 2⁵³, so
// m·10⁴ fits 128 bits and x·10⁴ rounded half-to-even on the exact
// remainder — the rule strconv applies to the exact expansion — is one
// multiply, a shift and a comparison. Everything else (negatives, −0,
// NaN, ±Inf, subnormals, and x ≥ 2⁵⁰ where the quotient could pass 64
// bits) goes to strconv.
func appendFixed4(dst []byte, x float64) []byte {
	b := math.Float64bits(x)
	if b == 0 {
		return append(dst, "0.0000"...)
	}
	// Sign and exponent together: a set sign bit reads as ≥ 0x800.
	exp := b >> 52
	if exp == 0 || exp > 1072 {
		return strconv.AppendFloat(dst, x, 'f', 4, 64)
	}
	s := uint(1075 - exp) // 3 ≤ s ≤ 1074
	if s > 67 {
		// m·10⁴ < 2⁶⁷ ≤ 2ˢ⁻¹: below half a unit of the fourth place.
		return append(dst, "0.0000"...)
	}
	hi, lo := bits.Mul64(b&(1<<52-1)|1<<52, 10000)
	var q uint64
	var up bool // round the quotient up
	if s < 64 {
		q = hi<<(64-s) | lo>>s // hi < 2³ ≤ 2ˢ: nothing is shifted out
		rem, half := lo&(1<<s-1), uint64(1)<<(s-1)
		up = rem > half || rem == half && q&1 == 1
	} else {
		t := s - 64 // the remainder is (hi's low t bits, lo); half is 2ˢ⁻¹
		q = hi >> t
		remHi := hi & (1<<t - 1)
		halfHi, halfLo := uint64(1)<<t>>1, uint64(0)
		if t == 0 {
			halfLo = 1 << 63
		}
		up = remHi > halfHi || remHi == halfHi && (lo > halfLo || lo == halfLo && q&1 == 1)
	}
	if up {
		q++
	}
	frac := q % 10000
	dst = strconv.AppendUint(dst, q/10000, 10)
	return append(dst, '.',
		byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// ParseBBox parses the canonical bbox form.
func ParseBBox(s string) (x, y, w, h float64, err error) {
	if strings.Count(s, ",") != 3 {
		return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q", s)
	}
	var vals [4]float64
	rest := s
	for i := range vals {
		part := rest
		if j := strings.IndexByte(rest, ','); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if perr != nil {
			return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q: %v", s, perr)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}
