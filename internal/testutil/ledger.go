package testutil

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// CheckLedger fails the test unless used — a storage engine's
// Budget().Stats().UsedBytes — equals the summed size of every file
// under the engine's root. Video segments and table records are left
// out: they are regenerable data the budget never charges.
// lint:testonly a helper the tests of several packages share
func CheckLedger(t *testing.T, root string, used int64) {
	t.Helper()
	var sum int64
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), "seg-") || d.Name() == "table.rec" {
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

// CheckOneFilePerView fails the test unless every file in the views
// directory under a storage engine's root is a view log or the key index
// of one: a view has no other file.
// lint:testonly a helper the tests of several packages share
func CheckOneFilePerView(t *testing.T, root string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "views", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if log, ok := strings.CutSuffix(f, ".idx"); ok && filepath.Ext(log) == ".view" && slices.Contains(files, log) {
			continue
		}
		if filepath.Ext(f) != ".view" {
			t.Errorf("%s beside the view logs", filepath.Base(f))
		}
	}
}
