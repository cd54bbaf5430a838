package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tailReplay is the test log's replay: header "HD", then 2-byte
// records [val, ^val]. The valid prefix ends at the first incomplete
// or complement-failing record.
func tailReplay(data []byte) (int, error) {
	if len(data) < 2 || data[0] != 'H' || data[1] != 'D' {
		return 0, fmt.Errorf("bad test-log header")
	}
	off := 2
	for off+2 <= len(data) {
		if data[off]^data[off+1] != 0xff {
			return off, nil
		}
		off += 2
	}
	return off, nil
}

func TestOpenTailLogFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	tl, err := OpenTailLog(path, "test log", "view:write:t", []byte("HD"), nil, tailReplay)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.file.Close()
	if tl.footprint != 2 || tl.recovered != 0 {
		t.Fatalf("fresh log: footprint=%d recovered=%d, want 2, 0", tl.footprint, tl.recovered)
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, []byte("HD")) {
		t.Fatalf("fresh log on disk = %q (%v), want header", data, err)
	}
}

func TestOpenTailLogReopenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	tl, err := OpenTailLog(path, "test log", "view:write:t", []byte("HD"), nil, tailReplay)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.file.Write([]byte{0x01, 0xfe, 0x02, 0xfd}); err != nil {
		t.Fatal(err)
	}
	tl.file.Close()

	tl2, err := OpenTailLog(path, "test log", "view:write:t", []byte("HD"), nil, tailReplay)
	if err != nil {
		t.Fatal(err)
	}
	defer tl2.file.Close()
	if tl2.footprint != 6 || tl2.recovered != 0 {
		t.Fatalf("clean reopen: footprint=%d recovered=%d, want 6, 0", tl2.footprint, tl2.recovered)
	}
	// The header must not be written again onto a non-empty log.
	data, _ := os.ReadFile(path)
	if !bytes.Equal(data, []byte{'H', 'D', 0x01, 0xfe, 0x02, 0xfd}) {
		t.Fatalf("reopen mutated the log: %x", data)
	}
}

func TestOpenTailLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	// One whole record, then a torn half-record.
	if err := os.WriteFile(path, []byte{'H', 'D', 0x01, 0xfe, 0x02}, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailLog(path, "test log", "view:write:t", []byte("HD"), nil, tailReplay)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.file.Close()
	if tl.footprint != 4 || tl.recovered != 1 {
		t.Fatalf("torn reopen: footprint=%d recovered=%d, want 4, 1", tl.footprint, tl.recovered)
	}
	data, _ := os.ReadFile(path)
	if !bytes.Equal(data, []byte{'H', 'D', 0x01, 0xfe}) {
		t.Fatalf("torn tail not truncated: %x", data)
	}
	// Appends continue at the truncated boundary.
	if _, err := tl.file.Write([]byte{0x03, 0xfc}); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if !bytes.Equal(data, []byte{'H', 'D', 0x01, 0xfe, 0x03, 0xfc}) {
		t.Fatalf("append after recovery landed wrong: %x", data)
	}
}

func TestOpenTailLogReplayErrorIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte{'X', 'X'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTailLog(path, "test log", "view:write:t", []byte("HD"), nil, tailReplay); err == nil {
		t.Fatal("bad header did not fail the open")
	}
}

func TestOpenTailLogRejectsBogusValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte{'H', 'D'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTailLog(path, "test log", "view:write:t", nil, nil, func(data []byte) (int, error) {
		return len(data) + 1, nil
	}); err == nil {
		t.Fatal("out-of-range valid prefix did not fail the open")
	}
	if _, err := OpenTailLog(path, "test log", "view:write:t", nil, nil, func(data []byte) (int, error) {
		return -1, nil
	}); err == nil {
		t.Fatal("negative valid prefix did not fail the open")
	}
}

// TestOpenRemovesScratch: a process that died between writing a scratch
// file and renaming it leaves the scratch behind, uncharged. Every open
// removes its own — the sidecar and compaction scratch beside a view
// log, the segment and watermark-log scratch in a video directory — and
// the ledger stays exact.
func TestOpenRemovesScratch(t *testing.T) {
	dir := t.TempDir()
	e := openLedger(t, dir)
	v, err := e.CreateView("det", viewSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	crashAppend(t, v, 0)
	live, err := e.OpenLiveVideo("traffic", liveDS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AppendFrames(3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateVideo("batch", liveDS()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	batchDir := filepath.Join(dir, "videos", "batch")
	planted := []string{
		scratchPath(cleanPath(v.path)),
		scratchPath(quarPath(v.path)),
		scratchPath(tombPath(v.path)),
		compactPath(v.path),
		scratchPath(wmPath(live.dir)),
		scratchPath(filepath.Join(live.dir, "seg-000000.bin")),
		scratchPath(filepath.Join(batchDir, "seg-000003.bin")),
	}
	for _, p := range planted {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := openLedger(t, dir)
	if _, err := e2.CreateView("det", viewSchema(), []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.OpenLiveVideo("traffic", liveDS()); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.CreateVideo("batch", liveDS()); err != nil {
		t.Fatal(err)
	}
	for _, p := range planted {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("open left scratch file %s behind", filepath.Base(p))
		}
	}
	checkLedger(t, e2)
}
