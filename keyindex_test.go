package eva

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eva/internal/storage"
)

// A cleanly closed view log gets a key index beside it (DESIGN.md §20
// "Key index"), and the next open files the log's rows by it instead of
// staging them. These tests run with four-row view chunks, so that every
// view of the testdata scripts passes the one chunk a log must hold to be
// indexed.

// TestReopenDifferentialThroughKeyIndex is TestReopenDifferential with
// four-row chunks: each Close between two statements indexes the views,
// and each Open after it files their rows through the indexes. Statement
// by statement the run must agree with the uninterrupted one, as it does
// after staged replays.
func TestReopenDifferentialThroughKeyIndex(t *testing.T) {
	defer storage.SetChunkShift(2)()
	if reopenDifferential(t, []int{1, 8}) == 0 {
		t.Fatal("no reopen went through a key index")
	}
}

// TestKeyIndexMatchesStagedReplay: each testdata script runs on a fresh
// directory, which its Close indexes; the directory is reopened through
// its key indexes and, copied without them, by staged replays, and the
// script runs again on both. They must agree on every statement — rows,
// report, evaluations, virtual time — on every UDF counter, on the view
// contents and on the key hash filed for each row.
func TestKeyIndexMatchesStagedReplay(t *testing.T) {
	defer storage.SetChunkShift(2)()
	for _, sc := range loadScripts(t, queryScripts) {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := openAt(t, Config{Dir: dir, Workers: 1})
			runStatements(t, sys, sc.src, answers)
			closeOK(t, sys)
			indexes, _ := filepath.Glob(filepath.Join(dir, "views", "*.idx"))
			staged := t.TempDir()
			copyTree(t, dir, staged, func(path string) bool { return filepath.Ext(path) != ".idx" })
			var got [2]string
			for i, d := range []string{dir, staged} {
				sys := openAt(t, Config{Dir: d, Workers: 1})
				out, _ := runStatements(t, sys, sc.src, everything)
				got[i] = out + stateDigest(sys) + viewContentDigest(sys) + keyHashDigest(sys)
				if through := sys.store.IndexedOpens(); (through > 0) != (i == 0 && len(indexes) > 0) {
					t.Errorf("%d view opens went through a key index, with %d indexes on disk", through, len(indexes))
				}
				closeOK(t, sys)
			}
			same(t, "the script after a reopen through the key indexes", got[1], got[0])
		})
	}
}

// keyHashDigest is the key hash every open view files for each row.
func keyHashDigest(sys *System) string {
	names := sys.store.Views()
	slices.Sort(names)
	var out strings.Builder
	for _, n := range names {
		if v := sys.store.Opened(n); v != nil {
			fmt.Fprintf(&out, "hashes %s: %x\n", n, v.KeyHashes())
		}
	}
	return out.String()
}

// copyTree copies the files under src that keep accepts to dst.
func copyTree(t *testing.T, src, dst string, keep func(path string) bool) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || !keep(path) {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
