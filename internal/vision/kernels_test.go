package vision

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"eva/internal/types"
)

// checkFixed4 holds the kernel to the formatter it replaced, and the
// parser to the kernel's output.
func checkFixed4(t *testing.T, x float64) {
	t.Helper()
	want := fmt.Sprintf("%.4f", x)
	if got := string(appendFixed4(nil, x)); got != want {
		t.Fatalf("appendFixed4(%v = %#x) = %q, fmt prints %q", x, math.Float64bits(x), got, want)
	}
	bbox := FormatBBox(x, 0, x, 1)
	if want := fmt.Sprintf("%.4f,%.4f,%.4f,%.4f", x, 0.0, x, 1.0); bbox != want {
		t.Fatalf("FormatBBox(%v, 0, %v, 1) = %q, fmt prints %q", x, x, bbox, want)
	}
	px, py, pw, ph, err := ParseBBox(bbox)
	if err != nil {
		t.Fatalf("ParseBBox(%q): %v", bbox, err)
	}
	if back := FormatBBox(px, py, pw, ph); back != bbox {
		t.Fatalf("ParseBBox(%q) formats back as %q", bbox, back)
	}
}

// fixed4Seeds are the values where a fixed-point formatter goes wrong
// first: exact ties at the fifth decimal (odd multiples of 1/32 times a
// power of two), both zeros, the subnormal and overflow edges, the
// bounds of the kernel's own exponent range, and NaN/Inf.
func fixed4Seeds() []float64 {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.00005, 0.00015, 0.99995, 0.99994999999999999,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		0x1p-15, 0x1p-14, 0x1.fffffffffffffp-15, 0x1p-16, 0x1.38p-15, // around s = 67
		0x1p-12, 0x1.fffffffffffffp-12, 0x1p-11, // around s = 64
		0x1p49, 0x1.fffffffffffffp49, 0x1p50, 0x1p52, 0x1p53, 0x1p63, 1e15, 1e16, 1e22,
	}
	for a := 1.0; a < 64; a += 2 {
		for _, scale := range []float64{1.0 / 32, 1.0 / 64, 1.0 / 1024, 1, 4096} {
			seeds = append(seeds, a*scale, 1234567+a*scale, -a*scale)
		}
	}
	return seeds
}

func TestFormatBBoxMatchesFmt(t *testing.T) {
	for _, x := range fixed4Seeds() {
		checkFixed4(t, x)
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 50000; i++ {
		checkFixed4(t, r.Float64())                            // the coordinates' own range
		checkFixed4(t, math.Float64frombits(r.Uint64()))       // any bit pattern
		checkFixed4(t, float64(r.Intn(20000))/20000)           // a tie wherever one is representable
		checkFixed4(t, math.Ldexp(r.Float64(), r.Intn(80)-20)) // every exponent the kernel takes
	}
}

func FuzzFormatBBox(f *testing.F) {
	for _, x := range fixed4Seeds() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed4(t, math.Float64frombits(bits))
	})
}

func TestParseBBoxErrorTexts(t *testing.T) {
	for s, want := range map[string]string{
		"":          `vision: bad bbox ""`,
		"1,2,3":     `vision: bad bbox "1,2,3"`,
		"1,2,3,4,5": `vision: bad bbox "1,2,3,4,5"`,
		"1,x,3,4":   `vision: bad bbox "1,x,3,4": strconv.ParseFloat: parsing "x": invalid syntax`,
		"1,2,3,":    `vision: bad bbox "1,2,3,": strconv.ParseFloat: parsing "": invalid syntax`,
	} {
		if _, _, _, _, err := ParseBBox(s); err == nil || err.Error() != want {
			t.Errorf("ParseBBox(%q) error = %v, want %s", s, err, want)
		}
	}
	if x, y, w, h, err := ParseBBox(" 0.1 ,0.2, 0.3,0.4 "); err != nil || x != 0.1 || y != 0.2 || w != 0.3 || h != 0.4 {
		t.Errorf("ParseBBox with spaces = %v %v %v %v, %v", x, y, w, h, err)
	}
}

// A corrupt header may declare 65 535 objects; decoding must fail on the
// bytes that are there, not allocate for the count first.
func TestDecodeFrameHostileObjectCount(t *testing.T) {
	p := MediumUADetrac.EncodeFrame(3)[:19]
	p[17], p[18] = 0xFF, 0xFF
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeFrame(p)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "vision: truncated object header at 19" {
		t.Fatalf("error = %v, want the truncated-header error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("decoding a 19-byte payload allocated %d bytes", got)
	}
}

// mutate applies the fuzzer's bit flip and truncation to a payload.
func mutate(p []byte, flip, cut uint16) []byte {
	if flip != 0 {
		bit := int(flip) % (len(p) * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	if cut != 0 {
		p = p[:int(cut)%(len(p)+1)]
	}
	return p
}

// checkDecoder decodes prev and then p through one Decoder and one
// buffer — what a pooled scan batch does to a worker's decoder — and
// holds the second answer to DecodeFrame's.
func checkDecoder(t *testing.T, prev, p []byte) {
	t.Helper()
	want, werr := DecodeFrame(p)
	var d Decoder
	buf := make([]byte, max(len(prev), len(p)))
	d.decode(buf[:copy(buf, prev)])
	for pass := 0; pass < 2; pass++ { // the second pass is the memo's answer
		df, gerr := d.decode(buf[:copy(buf, p)])
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("pass %d: Decoder error %v, DecodeFrame error %v", pass, gerr, werr)
		}
		if werr != nil {
			continue
		}
		got := *df
		got.Objects = append([]Object(nil), df.Objects...)
		for i := range got.Objects {
			got.Objects[i].Plate = d.plate(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: Decoder decoded %+v, DecodeFrame %+v", pass, got, want)
		}
	}
}

func TestDecoderMatchesDecodeFrame(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		f, g := int64(r.Intn(500)), int64(r.Intn(500))
		if i%3 == 0 {
			g = f // same frame twice: the memo must hold
		}
		var flip, cut uint16
		if i%2 == 0 {
			flip, cut = uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)*(i%4/2))
		}
		checkDecoder(t, MediumUADetrac.EncodeFrame(g), mutate(MediumUADetrac.EncodeFrame(f), flip, cut))
	}
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(7), uint16(7), uint16(0), uint16(25))
	f.Add(uint16(7), uint16(8), uint16(140), uint16(0))
	f.Add(uint16(3), uint16(3), uint16(17*8+3), uint16(19))
	f.Fuzz(func(t *testing.T, frame, prev, flip, cut uint16) {
		checkDecoder(t, MediumUADetrac.EncodeFrame(int64(prev)), mutate(MediumUADetrac.EncodeFrame(int64(frame)), flip, cut))
	})
}

func TestDetectIntoMatchesDetect(t *testing.T) {
	schema := types.MustSchema(
		types.Column{Name: "label", Kind: types.KindString}, types.Column{Name: "bbox", Kind: types.KindString},
		types.Column{Name: "score", Kind: types.KindFloat}, types.Column{Name: "area", Kind: types.KindFloat})
	var dec Decoder
	for _, name := range []string{YoloTiny, FasterRCNN50, FasterRCNN101} {
		m := mustModel(t, name)
		out := types.NewBatch(schema)
		for f := int64(0); f < 200; f++ {
			payload := MediumUADetrac.EncodeFrame(f)
			want, err := Detect(name, payload)
			if err != nil {
				t.Fatal(err)
			}
			start := out.Len()
			if err := m.DetectInto(&dec, payload, out); err != nil {
				t.Fatal(err)
			}
			if out.Len()-start != len(want) {
				t.Fatalf("%s frame %d: %d rows, Detect found %d", name, f, out.Len()-start, len(want))
			}
			for i, d := range want {
				r := start + i
				if out.At(r, 0).Str() != d.Label || out.At(r, 1).Str() != d.BBox() ||
					out.At(r, 2).Float() != d.Score || out.At(r, 3).Float() != d.Area() {
					t.Fatalf("%s frame %d row %d: %v vs %+v", name, f, i, out.Row(r), d)
				}
			}
		}
	}
	if err := mustModel(t, CarTypeModel).DetectInto(&dec, MediumUADetrac.EncodeFrame(0), types.NewBatch(schema)); err == nil {
		t.Error("a classifier used as a detector should error")
	}
	if _, err := mustModel(t, FasterRCNN50).Classify(&dec, MediumUADetrac.EncodeFrame(0), "0,0,0,0"); err == nil {
		t.Error("a detector used as a classifier should error")
	}
	if _, err := mustModel(t, CarTypeModel).FilterVehicles(&dec, MediumUADetrac.EncodeFrame(0)); err == nil {
		t.Error("a classifier used as the frame filter should error")
	}
}

func TestProfilesForLogicalTieBreak(t *testing.T) {
	profiles["tie-b"] = Profile{Name: "tie-b", LogicalType: "Tie", Cost: 1}
	profiles["tie-a"] = Profile{Name: "tie-a", LogicalType: "Tie", Cost: 1}
	defer func() { delete(profiles, "tie-a"); delete(profiles, "tie-b") }()
	for i := 0; i < 20; i++ {
		got := ProfilesForLogical("tie")
		if len(got) != 2 || got[0].Name != "tie-a" || got[1].Name != "tie-b" {
			t.Fatalf("ProfilesForLogical order = %v", got)
		}
	}
}
