package ok

import (
	"encoding/binary"

	"eva/internal/xxhash"
)

// seal is the one frame codec's checksum.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(body, xxhash.Sum64(body, 0))
}
