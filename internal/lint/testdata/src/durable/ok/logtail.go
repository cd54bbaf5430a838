// Package ok demonstrates what the durable analyzer accepts: the
// write primitives inside logtail.go and the checksum inside frame.go,
// their use through those files from other files, and annotated
// exceptions.
package ok

import (
	"os"

	"eva/internal/faults"
)

// Log is the one owner of the write protocol.
type Log struct {
	f    *os.File
	size int64
}

// Append draws, writes and rolls back.
func (l *Log) Append(inj *faults.Injector, rec []byte) error {
	if _, err := inj.CheckWrite("view:write:x", uint64(l.size), len(rec)); err != nil {
		return err
	}
	if _, err := l.f.Write(rec); err != nil {
		return l.f.Truncate(l.size)
	}
	l.size += int64(len(rec))
	return nil
}

// replace commits a scratch file.
func replace(path string, data []byte) error {
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}
