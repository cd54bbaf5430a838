// Package ok is the root of the unreferenced analyzer's negative
// fixture: everything its internal package declares is reached from
// here, through an interface, or carries a lint:testonly reason.
package ok

import "eva/internal/lint/testdata/src/unreferenced/ok/internal/lib"

// Run reaches the internal package.
func Run() error {
	var l lib.List[int]
	l.Push(lib.Used())
	if _, ok := any(lib.NewReader()).(interface{ Frames() int }); !ok {
		return nil
	}
	return lib.Wrap(nil)
}
