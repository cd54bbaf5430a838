// Package ok demonstrates the map iterations the mapiter analyzer
// accepts: the collect-then-sort idiom, commutative accumulation,
// keyed writes, loop-local builders, and the annotated escape.
package ok

import (
	"sort"
	"strings"
)

// SortedKeys is the canonical collect-then-sort idiom: the append
// order is erased by the sort.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Total accumulates commutatively; order cannot leak.
func Total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Mass sums float weights in key order, so every run adds them in the
// same order.
func Mass(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// Scale multiplies each weight in place; no float outlives an
// iteration.
func Scale(m map[string]float64, f float64) {
	for k, w := range m {
		w *= f
		w = w + f
		m[k] = w
	}
}

// Last keeps one weight, overwritten, never accumulated.
func Last(m map[string]float64, f float64) float64 {
	last := 0.0
	for _, w := range m {
		last = w * f
	}
	return last
}

// Invert writes into a map keyed by the element, which is
// order-insensitive.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Describe builds each entry's string in a loop-local builder; only
// the keyed result escapes.
func Describe(m map[string]int) map[string]string {
	out := make(map[string]string, len(m))
	for k := range m {
		var sb strings.Builder
		sb.WriteString(k)
		sb.WriteString("!")
		out[k] = sb.String()
	}
	return out
}

// Publish sends in iteration order deliberately: the consumer
// treats messages as an unordered set.
func Publish(m map[string]int, ch chan<- string) {
	// lint:unordered the consumer deduplicates into a set
	for k := range m {
		ch <- k
	}
}
