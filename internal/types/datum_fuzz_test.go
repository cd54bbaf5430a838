package types

import (
	"bytes"
	"testing"
)

// FuzzDecodeDatum throws arbitrary bytes at the canonical datum
// decoder. The invariants: no panic on any input, a successful decode
// consumes 1..len(src) bytes, and re-encoding the decoded datum
// reproduces exactly the bytes consumed (the encoding is canonical).
func FuzzDecodeDatum(f *testing.F) {
	for _, d := range []Datum{
		Null,
		NewBool(true),
		NewInt(-42),
		NewFloat(3.5),
		NewString("car"),
		NewBytes([]byte{0, 1, 2}),
	} {
		f.Add(d.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, src []byte) {
		d, n, err := decodeDatum(src)
		if err != nil {
			return
		}
		if n <= 0 || n > len(src) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(src))
		}
		if got := d.EncodedSize(); got != n {
			t.Fatalf("EncodedSize = %d, decode consumed %d", got, n)
		}
		re := d.AppendBinary(nil)
		if !bytes.Equal(re, src[:n]) {
			t.Fatalf("round-trip mismatch: %x -> %v -> %x", src[:n], d, re)
		}
	})
}
