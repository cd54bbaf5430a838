package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eva/internal/faults"
	"eva/internal/xxhash"
)

// The frame codec: the one byte layout under every durable file of this
// package and of internal/ingest (DESIGN.md §20 "Frame"). This file is
// the only code that writes or checks a magic, a version, a length or a
// checksum; the owners of the files see payloads. Every file opens with
// the same preamble, [magic:4][version:1], and then has one of two
// shapes:
//
//   - a record log: the preamble, a header body its owner defines
//     (empty but for the view log's), then records
//     [kind:1][count:4][len:4][payload][xxhash64 over kind..payload:8];
//   - a sealed file: the preamble, a body, and an xxhash64 over
//     everything before it:8.
//
// A log is read by one salvaging scanner (scanLog), a sealed file by
// openSealed.

// Record kinds. A log's format declares the kinds it holds; the scanner
// yields no other, so a record of another kind reads as rot.
const (
	recRows  = 1 // view rows: count rows of encoded datums
	recKeys  = 2 // view processed keys: count encoded key tuples
	recPred  = 3 // the view's aggregated-predicate snapshot; count 0
	recState = 4 // a last-record-wins state snapshot; count 0
)

const (
	// preambleLen is magic + version.
	preambleLen = 5
	// recHeaderLen is kind + count + len; recSumLen the trailing
	// checksum of a record, and of a sealed file.
	recHeaderLen = 9
	recSumLen    = 8
	// stateV1 is the version of the watermark and checkpoint logs before
	// they were record logs; an open upgrades it (OpenStateLog).
	stateV1 = 1
)

// Format is one durable file layout: a magic, a version and, for a
// record log, the record kinds it holds.
type Format struct {
	magic   uint32
	version byte
	kinds   uint8 // bit k set: a log of this format holds kind k; 0 for a sealed file
	// v1State is the payload size of a version-1 state record, whose
	// payload was followed by its checksum and nothing else; 0 means the
	// payload was prefixed by its 4-byte length instead.
	v1State int
}

// The formats of the durable files.
var (
	viewLog = Format{magic: 0x45564156, version: 2, kinds: 1<<recRows | 1<<recKeys | 1<<recPred} // "EVAV"
	wmLog   = Format{magic: 0x45564157, version: 2, kinds: 1 << recState, v1State: 8}            // "EVAW"
	// CheckpointLog is the format of a standing query's checkpoint log
	// (internal/ingest).
	CheckpointLog = Format{magic: 0x45564143, version: 2, kinds: 1 << recState} // "EVAC"
	segFile       = Format{magic: 0x45564153, version: 2}                       // "EVAS"
	tableFile     = Format{magic: 0x45564144, version: 2}                       // "EVAD"
	keyIndexFile  = Format{magic: 0x45564149, version: 1}                       // "EVAI"
)

// errHeaderCorrupt signals that a log's preamble or header is
// unreadable: no record can be attributed to it. For a view the
// generation is a total loss and the caller salvages by starting a
// fresh log.
var errHeaderCorrupt = errors.New("storage: log header corrupt")

// beginFile starts a file of format f in buf: its preamble. A log's
// owner appends its header body and then records (sealRecord); a sealed
// file's owner appends the body and then sealFile.
func beginFile(buf []byte, f Format) []byte {
	return append(binary.LittleEndian.AppendUint32(buf, f.magic), f.version)
}

// sealFile ends a sealed file: the checksum over everything in buf.
func sealFile(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf, 0))
}

// digest is the checksum a sealed file keeps of another file's bytes: a
// view's key index, of the log prefix it describes.
func digest(data []byte) uint64 { return xxhash.Sum64(data, 0) }

// openSealed returns the body of the sealed file data, or false when
// data is not a file of format f: too short, another magic or version,
// or a checksum that does not match.
func openSealed(data []byte, f Format) ([]byte, bool) {
	n := len(data) - recSumLen
	if n < preambleLen || binary.LittleEndian.Uint32(data) != f.magic || data[4] != f.version {
		return nil, false
	}
	if xxhash.Sum64(data[:n], 0) != binary.LittleEndian.Uint64(data[n:]) {
		return nil, false
	}
	return data[preambleLen:n], true
}

// openLog checks that data starts with the preamble of a log of format f
// and returns the offset of the header body after it. A short file or
// another magic is errHeaderCorrupt; another version too, named.
func openLog(data []byte, f Format) (int, error) {
	if len(data) < preambleLen || binary.LittleEndian.Uint32(data) != f.magic {
		return 0, errHeaderCorrupt
	}
	if data[4] != f.version {
		return 0, fmt.Errorf("unsupported version %d: %w", data[4], errHeaderCorrupt)
	}
	return preambleLen, nil
}

// sealRecord appends one checksummed record to buf.
func sealRecord(buf []byte, kind byte, count int, payload []byte) []byte {
	start := len(buf)
	return endRecord(append(beginRecord(buf, kind), payload...), start, count)
}

// beginRecord appends a record header of the given kind for a payload
// the caller appends in place; endRecord, given where the record began,
// fills in the count and the payload length and appends the checksum.
func beginRecord(buf []byte, kind byte) []byte {
	return append(buf, kind, 0, 0, 0, 0, 0, 0, 0, 0)
}

func endRecord(buf []byte, start, count int) []byte {
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(count))
	binary.LittleEndian.PutUint32(buf[start+5:], uint32(len(buf)-start-recHeaderLen))
	return binary.LittleEndian.AppendUint64(buf, xxhash.Sum64(buf[start:], 0))
}

// logScan is what one scan of a record log found.
type logScan struct {
	// valid is the offset past the last record accepted: what lies past
	// it is a torn tail, for the open to truncate.
	valid int
	// holes are the rotted ranges the scan resynchronised past,
	// ascending and disjoint.
	holes []LostRange
	// records counts the records accepted, each after its checksum.
	records int
}

// scanLog reads the records of a log of format f from off, the end of
// its header, and hands each verified one to fn as (kind, count,
// payload); payload aliases data. A record that fails its structural
// checks or its checksum mid-log is salvaged around: the scan
// resynchronises to the next checksum-valid record boundary, records the
// skipped bytes as a hole and goes on, so one flipped bit costs one
// record. Only when no valid record follows — the signature of a crash
// mid-append — does the scan stop at the last good boundary. An error
// from fn is the owner's — a payload that verified but does not decode,
// a writer bug or deliberate corruption, not a crash — and ends the
// scan.
func scanLog(data []byte, off int, f Format, fn func(kind byte, count int, payload []byte) error) (logScan, error) {
	var s logScan
	for off < len(data) {
		end, ok := recordBounds(data, off, f.kinds)
		if !ok || !sumOK(data, off, end) {
			// With no valid record after this one it is a torn tail; with
			// one, the skipped bytes are a mid-log hole.
			next := resyncRecord(data, off+1, f.kinds)
			if next < 0 {
				break
			}
			s.holes = append(s.holes, LostRange{Lo: int64(off), Hi: int64(next)})
			off = next
			continue
		}
		s.records++
		count := int(binary.LittleEndian.Uint32(data[off+1:]))
		if err := fn(data[off], count, data[off+recHeaderLen:end-recSumLen]); err != nil {
			return s, err
		}
		off = end
	}
	s.valid = off
	return s, nil
}

// recordBounds validates the record header at off structurally against
// the kinds a log holds, returning the offset past the record. ok is
// false when the record does not fit in data or its header is
// implausible.
func recordBounds(data []byte, off int, kinds uint8) (end int, ok bool) {
	if off+recHeaderLen+recSumLen > len(data) || kinds>>data[off]&1 == 0 {
		return 0, false
	}
	count := int(binary.LittleEndian.Uint32(data[off+1:]))
	paylen := int(binary.LittleEndian.Uint32(data[off+5:]))
	if paylen < 0 || count < 0 {
		return 0, false
	}
	end = off + recHeaderLen + paylen + recSumLen
	if end < off || end > len(data) {
		return 0, false
	}
	return end, true
}

// sumOK reports whether the record data[off:end] matches its checksum.
func sumOK(data []byte, off, end int) bool {
	return xxhash.Sum64(data[off:end-recSumLen], 0) == binary.LittleEndian.Uint64(data[end-recSumLen:])
}

// resyncRecord scans forward from off for the next byte offset holding
// a checksum-valid record, or -1 when none exists. A 64-bit checksum
// over the full candidate record makes a false resynchronisation point
// (random bytes that both parse as a header and hash correctly)
// vanishingly unlikely.
func resyncRecord(data []byte, off int, kinds uint8) int {
	for ; off+recHeaderLen+recSumLen <= len(data); off++ {
		if end, ok := recordBounds(data, off, kinds); ok && sumOK(data, off, end) {
			return off
		}
	}
	return -1
}

// OpenStateLog opens (or creates) a last-record-wins log of state
// records in format f — a live table's watermark log, a standing query's
// checkpoint log — through OpenTailLog. apply sees the states the log
// holds, oldest first, and may refuse one (a payload that does not
// decode, a state that regresses), which fails the open.
//
// A version-1 log is read by its minimal last-valid-record decoder
// (lastV1State): apply sees only its last state, and the open folds the
// log into a version-2 image before it returns. If that fold fails the
// open fails and the v1 file is left as it was, so no file ever holds
// two versions.
func OpenStateLog(path, label, site string, f Format, budget *DiskBudget, apply func(state []byte) error) (*TailLog, error) {
	upgrade := false
	var last []byte
	l, err := OpenTailLog(path, label, site, beginFile(nil, f), budget, func(data []byte) (int, error) {
		if len(data) >= preambleLen && binary.LittleEndian.Uint32(data) == f.magic && data[4] == stateV1 {
			upgrade = true
			if last = lastV1State(data[preambleLen:], f.v1State); last != nil {
				return len(data), apply(last)
			}
			return len(data), nil
		}
		off, err := openLog(data, f)
		if err != nil {
			return 0, err
		}
		s, err := scanLog(data, off, f, func(_ byte, _ int, state []byte) error { return apply(state) })
		return s.valid, err
	})
	if err != nil {
		return nil, err
	}
	if upgrade {
		if err := l.rewrite(stateImage(l.header, last)); err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("upgrade version-%d log: %w", stateV1, err)
		}
	}
	return l, nil
}

// lastV1State is the minimal decoder of a version-1 state log's records
// (after the preamble): each was a payload — fixed bytes long, or
// prefixed by its 4-byte length when fixed is 0 — followed by an xxhash64
// over the payload. It returns the last payload before the first record
// that does not verify (a torn tail), or nil when there is none.
func lastV1State(data []byte, fixed int) (last []byte) {
	for off := 0; ; {
		n, at := fixed, off
		if fixed == 0 {
			if off+4 > len(data) {
				return last
			}
			n, at = int(binary.LittleEndian.Uint32(data[off:])), off+4
		}
		end := at + n + recSumLen
		if n < 0 || end < at || end > len(data) ||
			xxhash.Sum64(data[at:at+n], 0) != binary.LittleEndian.Uint64(data[at+n:]) {
			return last
		}
		last, off = data[at:at+n], end
	}
}

// stateImage is the minimal image of a state log: its header and,
// unless state is nil, one record of state.
func stateImage(header, state []byte) []byte {
	img := append(make([]byte, 0, len(header)+recHeaderLen+len(state)+recSumLen), header...)
	if state == nil {
		return img
	}
	return sealRecord(img, recState, 0, state)
}

// AppendState is Append of one state record.
func (l *TailLog) AppendState(state []byte, lsn uint64, inj *faults.Injector) error {
	return l.Append(sealRecord(make([]byte, 0, recHeaderLen+len(state)+recSumLen), recState, 0, state), lsn, inj)
}

// FoldState is Fold to a state log's minimal image: its header and,
// unless state is nil, one record of state.
func (l *TailLog) FoldState(state []byte) error { return l.Fold(stateImage(l.header, state)) }
