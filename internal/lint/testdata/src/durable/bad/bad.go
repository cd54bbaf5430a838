// Package bad seeds second copies of the durable-write protocol for the
// durable analyzer tests: a hand-rolled append with its own fault draw
// and rollback, a private scratch-and-rename (and in checksum.go a frame).
package bad

import (
	"os"

	"eva/internal/faults"
)

// Append is a log write that draws and rolls back on its own.
func Append(f *os.File, inj *faults.Injector, rec []byte, size int64) error {
	if _, err := inj.CheckWrite("view:write:x", uint64(size), len(rec)); err != nil { // want "Injector.CheckWrite outside logtail.go"
		return err
	}
	if _, err := f.Write(rec); err != nil {
		return f.Truncate(size) // want "File.Truncate outside logtail.go"
	}
	return nil
}

// Replace is a private atomic file replacement.
func Replace(path string, data []byte) error {
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path) // want "os.Rename outside logtail.go"
}

// commit smuggles the rename out as a value.
var commit = os.Rename // want "os.Rename outside logtail.go"
