package catalog

import (
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
	mu    sync.RWMutex
	num   map[string]*Histogram         // guarded by mu
	cat   map[string]map[string]float64 // guarded by mu
	fall  symbolic.UniformStats
	total float64
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
	// Summed in value order: float addition is not associative, and map
	// order would make the estimate — and every plan decision it feeds —
	// differ in its last bits from run to run.
	inSum := 0.0
	for _, v := range cat.Sorted() {
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
