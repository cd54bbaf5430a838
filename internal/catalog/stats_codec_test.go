package catalog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"eva/internal/vision"
)

// codecDatasets are the shapes the statistics record must carry exactly:
// the benchmark's dense and sparse videos, a tiny one, one without
// objects, and a built-in dataset.
func codecDatasets() map[string]vision.Dataset {
	return map[string]vision.Dataset{
		"bench-dense":  {Name: "bench-dense", Frames: 4200, Width: 960, Height: 540, Density: 8.3, Seed: 0x5EED1},
		"bench-sparse": {Name: "bench-sparse", Frames: 14000, Width: 600, Height: 400, Density: 0.1, Seed: 0x5EED2},
		"64-frames":    {Name: "tiny", Frames: 64, Width: 320, Height: 240, Density: 3, Seed: 7},
		"density-0":    {Name: "empty", Frames: 500, Width: 320, Height: 240, Density: 0, Seed: 9},
		"medium":       vision.MediumUADetrac,
	}
}

// TestStatsCodecRoundTrip: the statistics a table record keeps decode to
// BuildStats' own, deep-equal and so bit for bit, and re-encode to the
// same bytes; the numeric terms are counted right after the fallback's
// 24 bytes.
func TestStatsCodecRoundTrip(t *testing.T) {
	for name, ds := range codecDatasets() {
		built := BuildStats(ds)
		enc := built.AppendBinary(nil)
		got, err := DecodeStats(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, built) {
			t.Errorf("%s: decoded statistics differ from the built ones", name)
		}
		if n := binary.LittleEndian.Uint32(enc[24:]); int(n) != len(built.num) {
			t.Errorf("%s: %d numeric terms counted after the fallback, want %d", name, n, len(built.num))
		}
		if again := got.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding the decoded statistics changed %d bytes to %d", name, len(enc), len(again))
		}
		for cut := 0; cut < len(enc); cut += 1 + len(enc)/64 {
			if _, err := DecodeStats(enc[:cut]); err == nil {
				t.Errorf("%s: a record cut to %d of %d bytes decoded", name, cut, len(enc))
			}
		}
		if _, err := DecodeStats(append(enc, 0)); err == nil {
			t.Errorf("%s: a record with a trailing byte decoded", name)
		}
	}
}

// FuzzDecodeStats: arbitrary bytes never panic the decoder, and what it
// accepts is exactly what the encoder writes for what it returned.
func FuzzDecodeStats(f *testing.F) {
	for _, ds := range codecDatasets() {
		f.Add(BuildStats(ds).AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, src []byte) {
		s, err := DecodeStats(src)
		if err != nil {
			return
		}
		if enc := s.AppendBinary(nil); !bytes.Equal(enc, src) {
			t.Fatalf("decoder accepted %d bytes the encoder writes as %d", len(src), len(enc))
		}
	})
}
