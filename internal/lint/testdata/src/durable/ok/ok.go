package ok

import (
	"os"

	"eva/internal/xxhash"
)

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

// keyHash hashes a lookup key, not a durable file.
var keyHash = func(k []byte) uint64 { return xxhash.Sum64(k, 0) } // lint:durable key hash, not a checksum

// Seal writes through the codec.
func Seal(body []byte) []byte { return seal(body) }
