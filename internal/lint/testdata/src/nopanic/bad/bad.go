// Package bad seeds a no-panic violation for the analyzer tests.
package bad

// Explode panics on bad input instead of returning an error.
func Explode(op int) int {
	if op < 0 {
		panic("negative operator") // want "panic in the query path; return an error"
	}
	return op
}

// MustParse is a panic wrapper: fine to declare, not to call from the
// query path.
func MustParse(op int) int { return Explode(op) }

type table struct{}

func (table) MustAppend(op int) {}

// Build calls both wrapper shapes where a statement's data decides
// whether they panic.
func Build(op int) int {
	var t table
	t.MustAppend(op)     // want "MustAppend panics on error"
	return MustParse(op) // want "MustParse panics on error"
}
