// Package lib seeds the unreferenced analyzer's findings: what the root
// package bad reaches stays quiet, everything else is reported.
package lib

import "fmt"

// Used is called by the root package.
func Used() string { return helper() }

// helper is reached through Used.
func helper() string { return fmt.Sprint(limit) }

// limit is reached through helper.
const limit = 3

// Dead calls deadLeaf and nothing calls Dead: the two are a dead
// cluster, reported whole in one run.
func Dead() int { return deadLeaf() + 1 } // want "func lib.Dead is reached by no non-test code outside internal/"

func deadLeaf() int { return 1 } // want "func lib.deadLeaf is reached by no non-test code"

// Shape is what NewSquare returns.
type Shape interface{ Area() float64 }

// Square is reachable through NewSquare.
type Square struct{ side float64 }

// NewSquare is called by the root package.
func NewSquare(side float64) Shape { return Square{side} }

// Area can satisfy Shape, so it is kept although nothing calls it.
func (s Square) Area() float64 { return s.side * s.side }

// String can satisfy fmt.Stringer, an interface of the standard library.
func (s Square) String() string { return fmt.Sprint(s.side) }

// Perimeter satisfies no interface, and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.side } // want "method lib.Square.Perimeter"

// Batch is re-exported by alias from the root package.
type Batch struct{ rows []int }

// Len is public API through the alias.
func (b *Batch) Len() int { return len(b.rows) }

// grow is unexported: the alias does not make it API.
func (b *Batch) grow() { b.rows = append(b.rows, 0) } // want "method lib.Batch.grow"

// Oracle is what the package's tests compare against.
// lint:testonly the reference of the package's property tests
func Oracle() int { return oracleStep() }

// oracleStep is reached through the annotated Oracle.
func oracleStep() int { return 2 }

// Bare carries the annotation without saying which test needs it.
// lint:testonly
func Bare() {} // want "func lib.Bare carries lint:testonly without a reason"

type deadType struct{} // want "type lib.deadType"

func (deadType) m() {} // want "method lib.deadType.m"

var deadVar = 1 // want "var lib.deadVar"

const deadConst = 2 // want "const lib.deadConst"

// Level is an enum that the root package names only through High.
type Level int

const (
	low Level = iota // want "const lib.low"
	// High is reachable, and through its type so is Level.
	High
)

// String can satisfy fmt.Stringer.
func (l Level) String() string { return fmt.Sprint(int(l)) }
