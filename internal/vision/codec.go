package vision

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Frame payload codec. A payload is the "rendered image" models decode:
// a compact, versioned binary encoding of the frame's ground truth plus
// deterministic clutter bytes. Real frames would be megabytes of
// pixels; the payload carries the same information a perfect detector
// could extract, while the storage engine accounts the virtual RGB24
// size separately (see Dataset.VirtualFrameBytes).

const (
	payloadMagic   = 0x45564146 // "EVAF"
	payloadVersion = 1
	clutterBytes   = 24
)

// EncodeFrame renders the frame's ground truth into a payload.
func (d Dataset) EncodeFrame(frame int64) []byte {
	objs := d.Objects(frame)
	buf := make([]byte, 0, 24+len(objs)*32+clutterBytes)
	buf = binary.LittleEndian.AppendUint32(buf, payloadMagic)
	buf = append(buf, payloadVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(frame))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Width))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Height))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(objs)))
	for _, o := range objs {
		buf = append(buf, byte(indexOf(Labels, o.Label)))
		buf = append(buf, byte(indexOf(VehicleTypes, o.VType)))
		buf = append(buf, byte(indexOf(Colors, o.Color)))
		buf = append(buf, byte(len(o.Plate)))
		buf = append(buf, o.Plate...)
		for _, v := range []float64{o.X, o.Y, o.W, o.H} {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	}
	// Clutter: deterministic noise standing in for pixel texture, so
	// payload hashing (FunCache) sees realistic per-frame variety.
	h := mix(d.Seed, uint64(frame), 0xC1077E5)
	for i := 0; i < clutterBytes; i++ {
		buf = append(buf, byte(h>>(uint(i%8)*8)))
		if i%8 == 7 {
			h = mix(h)
		}
	}
	return buf
}

// DecodedFrame is the result of decoding a payload.
type DecodedFrame struct {
	Frame   int64
	Width   int
	Height  int
	Objects []Object
}

// FrameVirtualBytes reads only the payload header and returns the
// frame's virtual decoded size (RGB24). It is the allocation-free
// fast path for callers that need the simulated pixel volume — e.g.
// FunCache hash-cost accounting — without materializing the object
// list DecodeFrame builds.
func FrameVirtualBytes(payload []byte) (int, bool) {
	if len(payload) < 19 ||
		binary.LittleEndian.Uint32(payload) != payloadMagic ||
		payload[4] != payloadVersion {
		return 0, false
	}
	w := int(binary.LittleEndian.Uint16(payload[13:]))
	h := int(binary.LittleEndian.Uint16(payload[15:]))
	return w * h * 3, true
}

// objectMinBytes is the encoded size of an object with an empty plate:
// three category indexes, the plate length and four float32 coordinates.
const objectMinBytes = 20

// DecodeFrame parses a payload produced by EncodeFrame.
// lint:testonly the one-shot oracle of FuzzDecodeFrame and a test reader
func DecodeFrame(payload []byte) (DecodedFrame, error) {
	var d Decoder
	df, err := d.decode(payload)
	for i := range df.Objects {
		df.Objects[i].Plate = d.plate(i)
	}
	return *df, err
}

// Decoder is the scratch a worker's models decode frames into: it
// reuses its object storage, and remembers the last payload it decoded —
// the rows a detector fans one frame out into each carry that frame to
// the classifiers, so consecutive calls decode it once. The memo
// compares payload contents, never the slice's address: scan batches
// are pooled, and a recycled batch puts another frame's bytes at the
// same address. The zero Decoder is ready.
type Decoder struct {
	buf      []byte // copy of the payload df holds, while valid
	valid    bool
	df       DecodedFrame
	plateOff []int // plate i is buf[plateOff[i]:][:buf[plateOff[i]-1]]
}

// decode parses a payload produced by EncodeFrame. The result belongs
// to the Decoder and is valid until its next decode; its objects carry
// no Plate — plate(i) makes the string for the one that is asked for.
func (d *Decoder) decode(payload []byte) (*DecodedFrame, error) {
	if d.valid && bytes.Equal(d.buf, payload) {
		return &d.df, nil
	}
	d.valid = false
	d.buf = append(d.buf[:0], payload...)
	if err := d.parse(); err != nil {
		return &d.df, err
	}
	d.valid = true
	return &d.df, nil
}

// plate returns the license plate of object i of the decoded frame.
func (d *Decoder) plate(i int) string {
	off := d.plateOff[i]
	return string(d.buf[off : off+int(d.buf[off-1])])
}

// parse fills df from buf.
func (d *Decoder) parse() error {
	payload, df := d.buf, &d.df
	df.Objects, d.plateOff = df.Objects[:0], d.plateOff[:0]
	if len(payload) < 19 {
		return fmt.Errorf("vision: short payload (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload) != payloadMagic {
		return fmt.Errorf("vision: bad payload magic")
	}
	if payload[4] != payloadVersion {
		return fmt.Errorf("vision: unsupported payload version %d", payload[4])
	}
	df.Frame = int64(binary.LittleEndian.Uint64(payload[5:]))
	df.Width = int(binary.LittleEndian.Uint16(payload[13:]))
	df.Height = int(binary.LittleEndian.Uint16(payload[15:]))
	n := int(binary.LittleEndian.Uint16(payload[17:]))
	// The header's count is untrusted: reserve only what the bytes that
	// follow could hold, so a corrupt count fails as truncated below
	// without first allocating for 65 535 objects.
	df.Objects = slices.Grow(df.Objects, min(n, (len(payload)-19)/objectMinBytes))
	off := 19
	for i := 0; i < n; i++ {
		if off+4 > len(payload) {
			return fmt.Errorf("vision: truncated object header at %d", off)
		}
		labelIdx, typeIdx, colorIdx := int(payload[off]), int(payload[off+1]), int(payload[off+2])
		plateLen := int(payload[off+3])
		off += 4
		if off+plateLen+16 > len(payload) {
			return fmt.Errorf("vision: truncated object body at %d", off)
		}
		if labelIdx >= len(Labels) || typeIdx >= len(VehicleTypes) || colorIdx >= len(Colors) {
			return fmt.Errorf("vision: corrupt object indices at %d", off)
		}
		d.plateOff = append(d.plateOff, off)
		off += plateLen
		var coords [4]float64
		for j := range coords {
			coords[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[off:])))
			off += 4
		}
		df.Objects = append(df.Objects, Object{
			ID:    i,
			Label: Labels[labelIdx],
			VType: VehicleTypes[typeIdx],
			Color: Colors[colorIdx],
			X:     coords[0], Y: coords[1], W: coords[2], H: coords[3],
		})
	}
	return nil
}

func indexOf(vals []string, v string) int {
	for i, s := range vals {
		if s == v {
			return i
		}
	}
	return 0
}
