package bad

import (
	"encoding/binary"

	"eva/internal/xxhash"
)

// Seal is a seventh hand-rolled layout: its own trailing checksum.
func Seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(body, xxhash.Sum64(body, 0)) // want "xxhash.Sum64 outside frame.go"
}

// sum smuggles the hash out as a value.
var sum = xxhash.Sum64 // want "xxhash.Sum64 outside frame.go"
