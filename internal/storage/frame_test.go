package storage

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// anyLog is a log format that holds every record kind, for scanning
// bytes whatever file they came from.
var anyLog = Format{kinds: 1<<recRows | 1<<recKeys | 1<<recPred | 1<<recState}

// scannedRecord is one record the scanner yielded.
type scannedRecord struct {
	kind    byte
	count   int
	payload []byte
}

// scanAll scans data from off and collects what the scanner yielded.
func scanAll(data []byte, off int) ([]scannedRecord, logScan, error) {
	var recs []scannedRecord
	s, err := scanLog(data, off, anyLog, func(kind byte, count int, payload []byte) error {
		recs = append(recs, scannedRecord{kind, count, payload})
		return nil
	})
	return recs, s, err
}

// FuzzFrameScan throws arbitrary bytes at the frame scanner, from the
// end of a view log's header when the bytes start with one and after
// the preamble otherwise. Properties: the scan never panics; valid is in
// range; the holes are ascending, disjoint and inside [header, valid);
// every yielded record re-seals to its own bytes, and the records and
// holes tile [header, valid) exactly; scanning data[:valid] yields the
// same records and holes and no torn tail.
func FuzzFrameScan(f *testing.F) {
	// Every compat golden: view logs, the side files older versions kept
	// beside them, version-1 and version-2 watermark and checkpoint logs.
	_ = filepath.WalkDir("testdata/compat", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) != ".txt" {
			if data, err := os.ReadFile(path); err == nil {
				f.Add(data)
			}
		}
		return nil
	})
	st := sealRecord(sealRecord(beginFile(nil, wmLog), recState, 0, wmState(3)), recState, 0, wmState(9))
	f.Add(st)
	rot := append([]byte(nil), st...)
	rot[preambleLen+2] ^= 0x10
	f.Add(rot)
	f.Add(st[:len(st)-4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := min(preambleLen, len(data))
		if _, _, off, err := parseViewHeader(data); err == nil {
			hdr = off
		}
		recs, s, err := scanAll(data, hdr)
		if err != nil {
			t.Fatalf("scan failed: %v", err)
		}
		if s.valid < hdr || s.valid > len(data) {
			t.Fatalf("valid %d outside [%d, %d]", s.valid, hdr, len(data))
		}
		prev := int64(hdr) - 1
		for _, h := range s.holes {
			if h.Lo <= prev || h.Hi <= h.Lo || h.Hi > int64(s.valid) {
				t.Fatalf("holes %v not ascending, disjoint and inside [%d, %d)", s.holes, hdr, s.valid)
			}
			prev = h.Hi
		}
		// Records and holes tile [hdr, valid), each record as it re-seals.
		pos, holes := hdr, s.holes
		for _, r := range recs {
			for len(holes) > 0 && holes[0].Lo == int64(pos) {
				pos, holes = int(holes[0].Hi), holes[1:]
			}
			rec := sealRecord(nil, r.kind, r.count, r.payload)
			if !bytes.Equal(data[pos:min(pos+len(rec), len(data))], rec) {
				t.Fatalf("record at %d does not re-seal to its own bytes", pos)
			}
			pos += len(rec)
		}
		if pos != s.valid || len(holes) != 0 {
			t.Fatalf("records and holes end at %d with %d holes left, valid %d", pos, len(holes), s.valid)
		}
		if s.records != len(recs) {
			t.Fatalf("scan counted %d records, yielded %d", s.records, len(recs))
		}
		// The accepted prefix is a fixed point.
		recs2, s2, err := scanAll(data[:s.valid], hdr)
		if err != nil || s2.valid != s.valid || len(recs2) != len(recs) || len(s2.holes) != len(s.holes) {
			t.Fatalf("prefix scan diverged: valid %d/%d records %d/%d holes %d/%d err %v",
				s2.valid, s.valid, len(recs2), len(recs), len(s2.holes), len(s.holes), err)
		}
		for i := range recs {
			if recs2[i].kind != recs[i].kind || recs2[i].count != recs[i].count || !bytes.Equal(recs2[i].payload, recs[i].payload) {
				t.Fatalf("prefix scan yielded a different record %d", i)
			}
		}
	})
}
