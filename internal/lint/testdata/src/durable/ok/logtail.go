// Package ok demonstrates what the durable analyzer accepts: the
// primitives inside logtail.go, their use through it from other files,
// and an annotated exception.
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
