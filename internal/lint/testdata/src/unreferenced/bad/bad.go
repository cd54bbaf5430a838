// Package bad is the root of the unreferenced analyzer's positive
// fixture: it lies outside internal/, so everything it declares is
// reachable, and so is everything it uses of its internal package.
package bad

import "eva/internal/lint/testdata/src/unreferenced/bad/internal/lib"

// Batch re-exports lib.Batch: its exported methods are public API.
type Batch = lib.Batch

// Run reaches lib.Used, lib.NewSquare and lib.High.
func Run() (string, lib.Shape, any) { return lib.Used(), lib.NewSquare(2), lib.High }
