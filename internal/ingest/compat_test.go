package ingest

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/vision"
)

// On-disk compatibility across the tail-log refactor: the golden tree
// under ../storage/testdata/compat was written by compatScript at the
// commit before storage.TailLog owned the write path. The same script
// must still leave byte-identical files, and the golden tree must open
// to the same state (compatDump, captured at that commit as state.txt).

const compatGolden = "../storage/testdata/compat"

func compatSchema() types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "label", Kind: types.KindString},
		types.Column{Name: "bbox", Kind: types.KindString},
	)
}

func compatDS() vision.Dataset {
	return vision.Dataset{Name: "cam", Frames: 100, Width: 320, Height: 240, Density: 2, Seed: 0x117E}
}

// compatAppend stores two rows under key 3i, one under 3i+1, and marks
// 3i+2 processed with no rows, so every append writes both record kinds.
func compatAppend(t *testing.T, v *storage.View, i int) {
	t.Helper()
	rows := types.NewBatch(compatSchema())
	base := int64(3 * i)
	rows.MustAppendRow(types.NewInt(base), types.NewString("car"), types.NewString("a"))
	rows.MustAppendRow(types.NewInt(base), types.NewString("bus"), types.NewString("b"))
	rows.MustAppendRow(types.NewInt(base+1), types.NewString("car"), types.NewString("c"))
	if _, err := v.Append(rows, [][]types.Datum{{types.NewInt(base + 2)}}); err != nil {
		t.Fatalf("append %d: %v", i, err)
	}
}

func compatOpen(t *testing.T, root string) (*storage.Engine, *storage.View, *storage.View, *storage.Video, *checkpointLog) {
	t.Helper()
	store, err := storage.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	store.SetBudget(storage.NewDiskBudget(0))
	det, err := store.CreateView("det", compatSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := store.CreateView("cls", compatSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cam, err := store.OpenLiveVideo("cam", compatDS())
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.CheckpointPath("cam-q")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := openCheckpoint(path, ckptSite(), store, nil)
	if err != nil {
		t.Fatal(err)
	}
	return store, det, cls, cam, ckpt
}

func compatClose(t *testing.T, store *storage.Engine, ckpt *checkpointLog) {
	t.Helper()
	if err := ckpt.close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// compatScript is the fixed script. First process: two views with rows,
// zero-row keys and predicate snapshots, a live table past one
// watermark fold (70 appends, the fold is at 64 records), a checkpoint
// log past one fold (10 writes, the fold is at 8). Then a byte of det's
// log rots. Second process: the open salvages around the hole (a
// quarantine manifest), the predicate is shrunk, and every log takes
// more appends.
func compatScript(t *testing.T, root string) {
	t.Helper()
	store, det, cls, cam, ckpt := compatOpen(t, root)
	for i := 0; i < 4; i++ {
		compatAppend(t, det, i)
	}
	if err := det.AppendPredicate([]byte("id < 12"), nil); err != nil {
		t.Fatal(err)
	}
	compatAppend(t, cls, 0)
	if err := cls.AppendPredicate([]byte("id < 3"), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		if _, err := cam.AppendFrames(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		if err := ckpt.write(mkState(int64(i*7), 0, int64(i), int64(i), 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	compatClose(t, store, ckpt)

	detPath := filepath.Join(root, "views", "det.view")
	data, err := os.ReadFile(detPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(detPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Without its sidecar the open re-verifies every record and finds
	// the rot.
	if err := os.Remove(detPath + ".clean"); err != nil {
		t.Fatal(err)
	}

	store, det, cls, cam, ckpt = compatOpen(t, root)
	if det.Quarantine() == nil {
		t.Fatal("rotted log did not quarantine")
	}
	det.ShrinkPredicate([]byte("id < 3 OR id >= 9"))
	compatAppend(t, det, 4)
	compatAppend(t, cls, 1)
	if _, err := cam.AppendFrames(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.write(mkState(80, 0, 11, 11, 2), nil); err != nil {
		t.Fatal(err)
	}
	compatClose(t, store, ckpt)
}

// compatDump opens the tree at root and describes everything the open
// recovered.
func compatDump(t *testing.T, root string) string {
	t.Helper()
	store, det, cls, cam, ckpt := compatOpen(t, root)
	defer compatClose(t, store, ckpt)
	var b strings.Builder
	for _, v := range []*storage.View{det, cls} {
		fmt.Fprintf(&b, "view %s: rows=%d keys=%d footprint=%d recovered=%d\n",
			v.Name(), v.Rows(), v.ProcessedCount(), v.Footprint(), v.RecoveredBytes())
		trusted, verified := v.OpenStats()
		pred, stale := v.Predicate()
		fmt.Fprintf(&b, "  open: trusted=%d verified=%d pred=%q stale=%v\n", trusted, verified, pred, stale)
		if q := v.Quarantine(); q != nil {
			fmt.Fprintf(&b, "  quarantine: %v lost=%d rows=%d keys=%d\n", q.Ranges, q.LostBytes, q.SalvagedRows, q.SalvagedKeys)
		}
		scan := v.Scan()
		for r := 0; r < scan.Len(); r++ {
			fmt.Fprintf(&b, "  %v\n", scan.Row(r))
		}
	}
	fmt.Fprintf(&b, "live cam: watermark=%d\n", cam.Watermark())
	fmt.Fprintf(&b, "checkpoint: lsn=%d recs=%d recovered=%d windows=", ckpt.st.lsn, ckpt.recs, ckpt.log.Recovered())
	for _, w := range sortedWindows(ckpt.st.windows) {
		fmt.Fprintf(&b, " %d:%d", w, ckpt.st.windows[w])
	}
	b.WriteString("\n")
	return b.String()
}

// treeFiles reads every file under root, keyed by slash-separated
// relative path.
func treeFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOnDiskCompat(t *testing.T) {
	golden := treeFiles(t, filepath.Join(compatGolden, "root"))
	if len(golden) == 0 {
		t.Fatal("no golden tree")
	}

	// The same script leaves the same bytes.
	root := t.TempDir()
	compatScript(t, root)
	got := treeFiles(t, root)
	for name, want := range golden {
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: script wrote %d bytes that differ from the %d golden ones", name, len(got[name]), len(want))
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("%s: script wrote a file the golden tree does not have", name)
		}
	}

	// The golden tree — with a torn tail cut into cls on top — opens to
	// the state its writer recovered.
	copyRoot := t.TempDir()
	for name, data := range golden {
		path := filepath.Join(copyRoot, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if name == "views/cls.view" {
			data = append(append([]byte(nil), data...), 1, 0, 0, 0, 9)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(compatGolden, "state.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if dump := compatDump(t, copyRoot); dump != string(want) {
		t.Errorf("golden tree opened to\n%s\nwant\n%s", dump, want)
	}
}
