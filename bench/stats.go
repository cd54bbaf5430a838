package main

import (
	"math"
	"sort"
	"time"

	"eva/internal/types"
	"eva/internal/xxhash"
)

// metric is one named measurement. Samples is the number of
// observations behind Value (0 for counts and single readings); Spread
// is the interquartile range over the median of those observations —
// for a figure pooled over the section (a query percentile, queries per
// second), of the same figure taken per session — which -check uses to
// tell "unresolved" from "disagree".
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of an ascending slice, by linear
// interpolation between closest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	s := sorted(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// medianOf builds a metric whose value is the median of the samples.
func medianOf(name, unit string, v []float64) metric {
	return metric{Name: name, Value: median(v), Unit: unit, Samples: len(v), Spread: spread(v)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rowDigest is an order-insensitive digest of a result set: the
// wrapping sum of a 64-bit hash of every row's canonical encoding,
// mixed with the row count. Two batches holding the same multiset of
// rows digest equally whatever order the executor emitted them in.
// buf is scratch the caller keeps across calls.
func rowDigest(b *types.Batch, buf []byte) (uint64, []byte) {
	var sum uint64
	cols := len(b.Schema())
	for r := 0; r < b.Len(); r++ {
		buf = buf[:0]
		for c := 0; c < cols; c++ {
			buf = b.At(r, c).AppendBinary(buf)
		}
		sum += xxhash.Sum64(buf, 0)
	}
	return sum ^ uint64(b.Len())*0x9E3779B97F4A7C15, buf
}

// timeLoop calls fn until budget has elapsed (at least once) and
// returns the mean nanoseconds per unit of work; fn returns how many
// units one call did.
func timeLoop(budget time.Duration, fn func() int) float64 {
	var units int
	start := time.Now()
	for {
		units += fn()
		if time.Since(start) >= budget {
			break
		}
	}
	if units == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}
