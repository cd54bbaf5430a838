package eva

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// A video directory keeps a table record beside its segments (DESIGN.md
// §20): the dataset it was built from and the table's optimizer
// statistics. A reopen reads it back instead of sampling the dataset,
// and refuses a dataset the directory was not built from.

// recordDS is a small dense table for the record tests.
var recordDS = Dataset{Name: "record-cam", Frames: 240, Width: 320, Height: 240, Density: 4, Seed: 0x7AB1E}

const recordQuery = `SELECT id, label FROM video CROSS APPLY YoloTiny(frame) WHERE id < 180 AND label = 'car'`

func recordPath(dir, table string) string {
	return filepath.Join(dir, "videos", table, "table.rec")
}

// TestReopenWithAnotherDatasetIsRefused: a directory populated from one
// dataset, reopened with the same table name over another seed, is
// refused with ErrDatasetMismatch rather than answering from the old
// frames — for a batch table and for a live one. The refusal registers
// nothing: the right dataset still loads afterwards.
func TestReopenWithAnotherDatasetIsRefused(t *testing.T) {
	other := recordDS
	other.Seed++
	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		sys := openAt(t, Config{Dir: dir})
		if err := sys.LoadDataset("video", recordDS); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exec(recordQuery); err != nil {
			t.Fatal(err)
		}
		closeOK(t, sys)

		sys = openAt(t, Config{Dir: dir})
		if err := sys.LoadDataset("video", other); !errors.Is(err, ErrDatasetMismatch) {
			t.Fatalf("LoadDataset over another seed = %v, want ErrDatasetMismatch", err)
		}
		if err := sys.LoadDataset("video", recordDS); err != nil {
			t.Fatalf("LoadDataset of the directory's own dataset after a refusal: %v", err)
		}
	})
	t.Run("live", func(t *testing.T) {
		dir := t.TempDir()
		sys := openAt(t, Config{Dir: dir})
		stream, err := sys.OpenStream(StreamConfig{Table: "live", Dataset: recordDS})
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Ingest(40); err != nil {
			t.Fatal(err)
		}
		if err := stream.Drain(); err != nil {
			t.Fatal(err)
		}
		closeOK(t, sys)

		sys = openAt(t, Config{Dir: dir})
		if _, err := sys.OpenStream(StreamConfig{Table: "live", Dataset: other}); !errors.Is(err, ErrDatasetMismatch) {
			t.Fatalf("OpenStream over another seed = %v, want ErrDatasetMismatch", err)
		}
		stream, err = sys.OpenStream(StreamConfig{Table: "live", Dataset: recordDS})
		if err != nil {
			t.Fatalf("OpenStream of the directory's own dataset after a refusal: %v", err)
		}
		if wm := stream.Stats().Watermark; wm != 40 {
			t.Errorf("reopened watermark %d, want 40", wm)
		}
	})
}

// TestDamagedTableRecordIsRebuilt: a record that is truncated or has a
// flipped bit, or is not there (as in every directory written before
// the record existed), is derived data: the reopen loads without error,
// answers the query exactly as a reopen over the intact record does —
// rows, plan, report and virtual time — and leaves the record rewritten
// byte for byte.
func TestDamagedTableRecordIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	sys := openAt(t, Config{Dir: dir})
	if err := sys.LoadDataset("video", recordDS); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(recordQuery); err != nil {
		t.Fatal(err)
	}
	closeOK(t, sys)
	path := recordPath(dir, "video")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the first load wrote no table record: %v", err)
	}

	reopen := func(t *testing.T) string {
		t.Helper()
		sys := openAt(t, Config{Dir: dir})
		if err := sys.LoadDataset("video", recordDS); err != nil {
			t.Fatal(err)
		}
		out, _ := runStatements(t, sys, recordQuery, everything)
		closeOK(t, sys)
		return out
	}
	want := reopen(t)
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name   string
		damage []byte
	}{
		{"truncated", intact[:len(intact)-3]},
		{"bit-flipped", flipped},
		{"missing", nil},
	} {
		name, damage := tc.name, tc.damage
		t.Run(name, func(t *testing.T) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if damage != nil {
				if err := os.WriteFile(path, damage, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			same(t, "the query after a reopen over a "+name+" record", want, reopen(t))
			got, err := os.ReadFile(path)
			if err != nil || string(got) != string(intact) {
				t.Errorf("record after the reopen: %d bytes (err %v), want the %d intact bytes", len(got), err, len(intact))
			}
		})
	}
}

// TestRecordlessDirectoryKeepsItsDataset: a directory whose table record
// is gone is held to the dataset being loaded by its segments. Loading
// another seed is ErrDatasetMismatch and writes no record — for a batch
// table and for a live one — and the directory's own dataset still loads
// afterwards and stamps it.
func TestRecordlessDirectoryKeepsItsDataset(t *testing.T) {
	other := recordDS
	other.Seed++
	for _, live := range []bool{false, true} {
		t.Run(map[bool]string{false: "batch", true: "live"}[live], func(t *testing.T) {
			dir := t.TempDir()
			table := map[bool]string{false: "video", true: "cam"}[live]
			load := func(sys *System, ds Dataset) error {
				if !live {
					return sys.LoadDataset(table, ds)
				}
				stream, err := sys.OpenStream(StreamConfig{Table: table, Dataset: ds})
				if err == nil {
					err = stream.Ingest(40)
				}
				if err == nil {
					err = stream.Drain()
				}
				return err
			}
			sys := openAt(t, Config{Dir: dir})
			if err := load(sys, recordDS); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Exec("SELECT id FROM " + table + " WHERE id < 30"); err != nil {
				t.Fatal(err)
			}
			closeOK(t, sys)
			if segs, _ := filepath.Glob(filepath.Join(dir, "videos", table, "seg-*.bin")); len(segs) == 0 {
				t.Fatal("the first session wrote no segment")
			}
			if err := os.Remove(recordPath(dir, table)); err != nil {
				t.Fatal(err)
			}

			sys = openAt(t, Config{Dir: dir})
			if err := load(sys, other); !errors.Is(err, ErrDatasetMismatch) {
				t.Fatalf("loading another seed over a directory without its record = %v, want ErrDatasetMismatch", err)
			}
			if _, err := os.Stat(recordPath(dir, table)); !os.IsNotExist(err) {
				t.Fatalf("the refused load wrote a table record: %v", err)
			}
			if err := load(sys, recordDS); err != nil {
				t.Fatalf("the directory's own dataset after the refusal: %v", err)
			}
			if _, err := os.Stat(recordPath(dir, table)); err != nil {
				t.Fatalf("the directory's own dataset left no table record: %v", err)
			}
			closeOK(t, sys)
		})
	}
}
