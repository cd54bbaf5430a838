// Package ok demonstrates the patterns the no-panic analyzer accepts:
// returned errors and lint:invariant-annotated programmer-error
// panics.
package ok

import "fmt"

// Safe surfaces bad input as an error.
func Safe(op int) (int, error) {
	if op < 0 {
		return 0, fmt.Errorf("nopanic: negative operator %d", op)
	}
	return op, nil
}

// MustPositive documents a true invariant: negative operators are
// constructed nowhere, so reaching the panic is programmer error.
func MustPositive(op int) int {
	if op < 0 {
		// lint:invariant negative operators are constructed nowhere
		panic("negative operator")
	}
	return op
}

// Static calls the wrapper on a value fixed in the source, and says
// so; Mustard only shares a prefix with the convention.
func Static() int {
	// lint:invariant the argument is a positive literal
	return MustPositive(3) + Mustard()
}

// Mustard is not a Must* wrapper.
func Mustard() int { return 1 }
