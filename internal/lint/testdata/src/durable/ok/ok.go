package ok

import "os"

// Store writes through the log and the shared replacement.
func Store(l *Log, rec []byte, path string) error {
	if err := l.Append(nil, rec); err != nil {
		return err
	}
	return replace(path, rec)
}

// Shrink cuts a file that is not a log.
func Shrink(f *os.File) error {
	return f.Truncate(0) // lint:durable a cache file, rebuilt whole on open
}
