// Package bad seeds order-sensitive map iterations for the mapiter
// analyzer tests.
package bad

import (
	"fmt"
	"io"
	"strings"
)

// Keys accumulates map keys in iteration order and never sorts them.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m { // want "order leaks through append to"
		keys = append(keys, k)
	}
	return keys
}

// Stream sends elements in iteration order.
func Stream(m map[string]int, ch chan<- string) {
	for k := range m { // want "order leaks through a channel send"
		ch <- k
	}
}

// Digest writes elements into a hasher in iteration order.
func Digest(m map[string]int, h io.Writer) {
	for k, v := range m { // want "order leaks through a call to fmt.Fprintf"
		fmt.Fprintf(h, "%s=%d;", k, v)
	}
}

// Render concatenates elements into an outer builder in iteration
// order.
func Render(m map[string]bool) string {
	var sb strings.Builder
	for k := range m { // want "order leaks through a call to sb.WriteString"
		sb.WriteString(k)
	}
	return sb.String()
}

// Mass sums float weights in iteration order: float addition is not
// associative, so the total's last bits change from run to run.
func Mass(m map[string]float64) float64 {
	total := 0.0
	for _, w := range m { // want "order leaks through floating-point accumulation into"
		total += w
	}
	return total
}

// Drift is Mass with the sum spelled out, which rounds the same way.
func Drift(m map[string]float64) float64 {
	total := 0.0
	for _, w := range m { // want "order leaks through floating-point accumulation into"
		total = total*0.5 + w
	}
	return total
}
