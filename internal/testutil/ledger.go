package testutil

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// CheckLedger fails the test unless used — a storage engine's
// Budget().Stats().UsedBytes — equals the summed size of every file
// under the engine's root. Video segments are left out: they are
// regenerable source data the budget never charges.
func CheckLedger(t *testing.T, root string, used int64) {
	t.Helper()
	var sum int64
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), "seg-") {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		sum += fi.Size()
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != used {
		t.Errorf("disk ledger charges %d bytes, files under %s hold %d: %v", used, root, sum, files)
	}
}
