package catalog

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"eva/internal/symbolic"
	"eva/internal/vision"
)

// Histogram is an equi-width histogram over a numeric term's domain,
// following the histogram-based selectivity estimation of traditional
// DBMSs the paper adopts (§4.2).
type Histogram struct {
	Lo, Hi  float64
	Buckets []float64 // fraction of values per bucket; sums to ≈ 1
}

// NewHistogram builds a histogram from samples.
func NewHistogram(lo, hi float64, buckets int, samples []float64) *Histogram {
	h := &Histogram{Lo: lo, Hi: hi, Buckets: make([]float64, buckets)}
	if len(samples) == 0 || hi <= lo {
		return h
	}
	width := (hi - lo) / float64(buckets)
	for _, s := range samples {
		idx := int((s - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= buckets {
			idx = buckets - 1
		}
		h.Buckets[idx]++
	}
	for i := range h.Buckets {
		h.Buckets[i] /= float64(len(samples))
	}
	return h
}

// Fraction estimates the fraction of values falling in the interval set,
// assuming uniformity within buckets.
func (h *Histogram) Fraction(ivs symbolic.IntervalSet) float64 {
	if len(h.Buckets) == 0 {
		return 0.5
	}
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	total := 0.0
	for i, frac := range h.Buckets {
		bLo := h.Lo + float64(i)*width
		bHi := bLo + width
		covered := 0.0
		for _, iv := range ivs.Intervals() {
			lo, hi := iv.Lo, iv.Hi
			if lo < bLo {
				lo = bLo
			}
			if hi > bHi {
				hi = bHi
			}
			if hi > lo {
				covered += hi - lo
			} else if iv.Lo == iv.Hi && iv.Contains(iv.Lo) && iv.Lo >= bLo && iv.Lo < bHi {
				// Point predicate: assume 100 distinct values per bucket.
				covered += width / 100
			}
		}
		if covered > width {
			covered = width
		}
		total += frac * (covered / width)
	}
	return total
}

// Stats implements symbolic.Stats over per-term histograms and
// categorical frequency tables. Term lookup first tries the exact
// canonical term (e.g. "cartype(frame, bbox)"), then the base function
// or column name ("cartype"), so UDF-output statistics apply to any
// argument spelling.
type Stats struct {
	mu   sync.RWMutex
	num  map[string]*Histogram         // guarded by mu
	cat  map[string]map[string]float64 // guarded by mu
	fall symbolic.UniformStats
}

// NewStats returns an empty statistics table with a uniform fallback.
func NewStats(fallback symbolic.UniformStats) *Stats {
	return &Stats{num: map[string]*Histogram{}, cat: map[string]map[string]float64{}, fall: fallback}
}

// SetNumeric registers a numeric term's histogram.
func (s *Stats) SetNumeric(term string, h *Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.num[normalizeTerm(term)] = h
}

// SetCategorical registers a categorical term's value frequencies.
func (s *Stats) SetCategorical(term string, freqs map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cat[normalizeTerm(term)] = freqs
}

func normalizeTerm(t string) string {
	t = strings.ToLower(strings.TrimSpace(t))
	if i := strings.IndexByte(t, '('); i > 0 {
		t = t[:i]
	}
	return t
}

// SelNumeric implements symbolic.Stats.
func (s *Stats) SelNumeric(term string, ivs symbolic.IntervalSet) float64 {
	s.mu.RLock()
	h, ok := s.num[normalizeTerm(term)]
	s.mu.RUnlock()
	if !ok {
		return s.fall.SelNumeric(term, ivs)
	}
	return h.Fraction(ivs)
}

// SelCategorical implements symbolic.Stats.
func (s *Stats) SelCategorical(term string, cat symbolic.CatSet) float64 {
	s.mu.RLock()
	freqs, ok := s.cat[normalizeTerm(term)]
	s.mu.RUnlock()
	if !ok {
		return s.fall.SelCategorical(term, cat)
	}
	// Summed in value order (the order of Vals): float addition is not
	// associative, and any other order would make the estimate — and
	// every plan decision it feeds — differ in its last bits.
	inSum := 0.0
	for _, v := range cat.Vals {
		inSum += freqs[v]
	}
	if cat.Negated {
		return clamp01(1 - inSum)
	}
	return clamp01(inSum)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// statsSampleFrames bounds the ingest-time sampling work per video.
const statsSampleFrames = 1000

// BuildStats samples the dataset's ground truth to build the
// statistics the optimizer needs: the id range, per-detection area and
// score distributions, label frequencies, and the output distributions
// of the classification UDFs.
func BuildStats(ds vision.Dataset) *Stats {
	s := NewStats(symbolic.UniformStats{Lo: 0, Hi: float64(ds.Frames), DomainSize: 10})

	// id is uniform over [0, frames).
	idHist := &Histogram{Lo: 0, Hi: float64(ds.Frames), Buckets: make([]float64, 64)}
	for i := range idHist.Buckets {
		idHist.Buckets[i] = 1.0 / float64(len(idHist.Buckets))
	}
	s.SetNumeric("id", idHist)
	secHist := &Histogram{Lo: 0, Hi: float64(ds.Frames) / 30.0, Buckets: idHist.Buckets}
	s.SetNumeric("seconds", secHist)

	step := ds.Frames / statsSampleFrames
	if step < 1 {
		step = 1
	}
	var areas []float64
	labelCounts := map[string]float64{}
	typeCounts := map[string]float64{}
	colorCounts := map[string]float64{}
	n := 0.0
	for f := 0; f < ds.Frames; f += step {
		for _, o := range ds.Objects(int64(f)) {
			areas = append(areas, o.Area())
			labelCounts[o.Label]++
			typeCounts[o.VType]++
			colorCounts[o.Color]++
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	norm := func(m map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = v / n
		}
		return out
	}
	s.SetNumeric("area", NewHistogram(0, 0.65, 32, areas))
	// Detector confidence scores are uniform on [0.5, 1) by model
	// construction; register the analytic histogram directly.
	s.SetNumeric("score", &Histogram{Lo: 0.5, Hi: 1.0, Buckets: uniformBuckets(16)})
	s.SetCategorical("label", norm(labelCounts))
	s.SetCategorical("cartype", norm(typeCounts))
	s.SetCategorical("colordet", norm(colorCounts))
	s.SetCategorical("license", map[string]float64{vision.PlantedPlate: 0.002})
	s.SetCategorical("vehiclefilter", map[string]float64{"⊤": minf(1, ds.Density)})
	return s
}

func uniformBuckets(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1.0 / float64(n)
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// AppendBinary appends the exact encoding of s to dst, the form a video
// table's record keeps (storage holds it as opaque bytes): the uniform
// fallback, then the numeric and the categorical terms, each
// map in ascending key order so equal statistics encode to equal bytes.
// Every float64 is its IEEE bits, so DecodeStats gives back the same
// statistics bit for bit, and with them the same plans.
func (s *Stats) AppendBinary(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dst = appendF64(dst, s.fall.Lo)
	dst = appendF64(dst, s.fall.Hi)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.fall.DomainSize))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.num)))
	for _, term := range slices.Sorted(maps.Keys(s.num)) {
		h := s.num[term]
		dst = appendF64(appendF64(appendStr(dst, term), h.Lo), h.Hi)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Buckets)))
		for _, b := range h.Buckets {
			dst = appendF64(dst, b)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.cat)))
	for _, term := range slices.Sorted(maps.Keys(s.cat)) {
		freqs := s.cat[term]
		dst = binary.LittleEndian.AppendUint32(appendStr(dst, term), uint32(len(freqs)))
		for _, v := range slices.Sorted(maps.Keys(freqs)) {
			dst = appendF64(appendStr(dst, v), freqs[v])
		}
	}
	return dst
}

// errStatsCodec reports statistics bytes AppendBinary did not write.
var errStatsCodec = errors.New("catalog: statistics record does not decode")

// DecodeStats rebuilds the statistics AppendBinary encoded as src. It
// accepts only what the encoder writes — every length inside src, keys
// strictly ascending, no byte left over — and sizes nothing from a
// count the rest of src cannot hold, so arbitrary bytes cost at most an
// error.
func DecodeStats(src []byte) (*Stats, error) {
	d := statsDecoder{src: src}
	s := NewStats(symbolic.UniformStats{Lo: d.f64(), Hi: d.f64(), DomainSize: int(d.u64())})
	var term string
	for i, n := 0, d.count(24); i < n && !d.bad; i++ {
		d.key(&term, i)
		h := &Histogram{Lo: d.f64(), Hi: d.f64()}
		h.Buckets = make([]float64, d.count(8))
		for j := range h.Buckets {
			h.Buckets[j] = d.f64()
		}
		s.num[term] = h
	}
	for i, n := 0, d.count(8); i < n && !d.bad; i++ {
		d.key(&term, i)
		freqs, m := map[string]float64{}, d.count(12)
		for j, v := 0, ""; j < m && !d.bad; j++ {
			d.key(&v, j)
			freqs[v] = d.f64()
		}
		s.cat[term] = freqs
	}
	if d.bad || len(d.src) != 0 {
		return nil, errStatsCodec
	}
	return s, nil
}

// statsDecoder reads DecodeStats' input front to back. A read past the
// end or a malformed field sets bad, after which every read yields
// zeros, so the caller checks once at the end.
type statsDecoder struct {
	src []byte
	bad bool
}

func (d *statsDecoder) take(n int) []byte {
	if d.bad || n > len(d.src) {
		d.bad = true
		return nil
	}
	b := d.src[:n]
	d.src = d.src[n:]
	return b
}

func (d *statsDecoder) u32() int {
	if b := d.take(4); !d.bad {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (d *statsDecoder) u64() uint64 {
	if b := d.take(8); !d.bad {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *statsDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads the count of a list whose entries are at least minSize
// bytes each, refusing one the rest of the input cannot hold.
func (d *statsDecoder) count(minSize int) int {
	n := d.u32()
	if n > len(d.src)/minSize {
		d.bad = true
		return 0
	}
	return n
}

// key reads the i-th key of a map into *k, which holds the key before
// it: keys must ascend strictly.
func (d *statsDecoder) key(k *string, i int) {
	next := string(d.take(d.u32()))
	if i > 0 && next <= *k {
		d.bad = true
	}
	*k = next
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}
