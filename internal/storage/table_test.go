package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"eva/internal/vision"
)

// TestTableRecord: a video directory's table record hands its
// statistics back to the next open of the same dataset, batch or live;
// an open over another dataset is ErrDatasetMismatch and registers
// nothing; a record that is cut short or has a flipped bit is as good as
// none; and the record stays outside the disk budget.
func TestTableRecord(t *testing.T) {
	dir := t.TempDir()
	ds := liveDS()
	stats := []byte("opaque statistics")
	e := openLedger(t, dir)
	batch, err := e.CreateVideo("batch", ds)
	if err != nil {
		t.Fatal(err)
	}
	live, err := e.OpenLiveVideo("live", ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Video{batch, live} {
		if v.Stats() != nil {
			t.Fatalf("%s: a fresh directory holds statistics", v.name)
		}
		if err := v.SaveStats(stats); err != nil {
			t.Fatal(err)
		}
	}
	checkLedger(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	other := ds
	other.Seed++
	e = openLedger(t, dir)
	defer e.Close()
	if _, err := e.CreateVideo("batch", other); !errors.Is(err, ErrDatasetMismatch) {
		t.Errorf("CreateVideo over another seed = %v, want ErrDatasetMismatch", err)
	}
	if _, err := e.OpenLiveVideo("live", other); !errors.Is(err, ErrDatasetMismatch) {
		t.Errorf("OpenLiveVideo over another seed = %v, want ErrDatasetMismatch", err)
	}
	if _, err := e.Video("batch"); err == nil {
		t.Error("a refused open registered the table")
	}
	batch, err = e.CreateVideo("batch", ds)
	if err != nil {
		t.Fatal(err)
	}
	if live, err = e.OpenLiveVideo("live", ds); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Video{batch, live} {
		if !bytes.Equal(v.Stats(), stats) {
			t.Errorf("%s: reopened statistics %q, want %q", v.name, v.Stats(), stats)
		}
	}

	intact, err := os.ReadFile(tablePath(batch.dir))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 1
	for name, data := range map[string][]byte{"truncated": intact[:len(intact)-1], "bit-flipped": flipped} {
		if got, err := parseTable(data, "batch", ds); got != nil || err != nil {
			t.Errorf("%s record: statistics %q, error %v; want neither", name, got, err)
		}
	}
}

// FuzzTableRecord: no input panics the table-record reader, whether as a
// whole file or as a body under a valid seal, and the reader accepts
// only what the writer writes: statistics come back only from the exact
// image tableImage makes of them, and a mismatch only from a body whose
// descriptor decodes.
func FuzzTableRecord(f *testing.F) {
	ds := liveDS()
	img := tableImage(ds, []byte("stats"))
	f.Add(img[preambleLen : len(img)-recSumLen])
	f.Add(appendDataset(nil, vision.Dataset{Name: "other", Frames: 7}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, data := range [][]byte{body, sealFile(append(beginFile(nil, tableFile), body...))} {
			stats, err := parseTable(data, "t", ds)
			switch {
			case err != nil:
				held, ok := decodeDataset(data[preambleLen:])
				if !errors.Is(err, ErrDatasetMismatch) || !ok || !bytes.HasPrefix(data[preambleLen:], appendDataset(nil, held)) {
					t.Fatalf("error %v from a body whose descriptor does not decode", err)
				}
			case stats != nil:
				if img := tableImage(ds, stats); !bytes.Equal(img, data) {
					t.Fatalf("reader accepted %d bytes the writer writes as %d", len(data), len(img))
				}
			}
		}
	})
}
