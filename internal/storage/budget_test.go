package storage

import (
	"errors"
	"fmt"
	"testing"
)

func TestDiskBudgetAdmitRefund(t *testing.T) {
	b := NewDiskBudget(100)
	if !b.Admit("a", 60) {
		t.Fatal("first admit within limit denied")
	}
	if b.Admit("b", 50) {
		t.Fatal("over-limit admit allowed")
	}
	if got := b.Stats().Denials; got != 1 {
		t.Fatalf("Denials = %d, want 1", got)
	}
	if !b.Admit("b", 40) {
		t.Fatal("exact-fit admit denied")
	}
	if hr := b.Headroom(); hr != 0 {
		t.Fatalf("Headroom = %d, want 0", hr)
	}
	b.Refund("b", 40)
	if hr := b.Headroom(); hr != 40 {
		t.Fatalf("Headroom after refund = %d, want 40", hr)
	}
	st := b.Stats()
	if st.UsedBytes != 60 || st.Artifacts != 1 {
		t.Fatalf("stats after refund: used=%d artifacts=%d, want 60, 1", st.UsedBytes, st.Artifacts)
	}
}

func TestDiskBudgetSetAndDrop(t *testing.T) {
	b := NewDiskBudget(1000)
	b.Admit("a", 100)
	b.Set("a", 30) // compaction shrank the artifact
	if st := b.Stats(); st.UsedBytes != 30 {
		t.Fatalf("used after Set = %d, want 30", st.UsedBytes)
	}
	b.Set("b", 70) // rename commit charges a fresh artifact
	if st := b.Stats(); st.UsedBytes != 100 || st.Artifacts != 2 {
		t.Fatalf("used=%d artifacts=%d, want 100, 2", st.UsedBytes, st.Artifacts)
	}
	b.Drop("a")
	if st := b.Stats(); st.UsedBytes != 70 || st.Artifacts != 1 {
		t.Fatalf("after drop: used=%d artifacts=%d, want 70, 1", st.UsedBytes, st.Artifacts)
	}
}

func TestDiskBudgetNilAndUnlimited(t *testing.T) {
	var nilB *DiskBudget
	if !nilB.Admit("a", 1<<40) {
		t.Fatal("nil budget denied")
	}
	nilB.Refund("a", 1)
	nilB.Set("a", 1)
	nilB.Drop("a")
	if hr := nilB.Headroom(); hr <= 0 {
		t.Fatalf("nil Headroom = %d", hr)
	}
	if st := nilB.Stats(); st != (DiskStats{}) {
		t.Fatalf("nil Stats = %+v, want zero", st)
	}
	// Account-only mode: limit <= 0 tracks but never denies.
	b := NewDiskBudget(0)
	if !b.Admit("a", 1<<40) {
		t.Fatal("account-only budget denied")
	}
	if st := b.Stats(); st.UsedBytes != 1<<40 || st.Denials != 0 {
		t.Fatalf("account-only stats: %+v", st)
	}
}

// isDiskFull reports whether err carries a retriable disk-full signal,
// as Engine.Retry tells it.
func isDiskFull(err error) bool {
	var dfe *DiskFullError
	return errors.As(err, &dfe)
}

func TestDiskFullErrorTyping(t *testing.T) {
	cause := errors.New("boom")
	dfe := &DiskFullError{Site: "disk:full:view:write:det", Need: 64, Injected: cause}
	wrapped := fmt.Errorf("storage: view det: %w", dfe)
	if !isDiskFull(wrapped) {
		t.Fatal("isDiskFull missed a wrapped DiskFullError")
	}
	if !errors.Is(wrapped, cause) {
		t.Fatal("DiskFullError does not unwrap its injected cause")
	}
	terminal := fmt.Errorf("storage: view det: %w: %v", ErrDiskBudget, dfe)
	if !errors.Is(terminal, ErrDiskBudget) {
		t.Fatal("terminal error does not match ErrDiskBudget")
	}
	if isDiskFull(errors.New("other")) {
		t.Fatal("isDiskFull false positive")
	}
}
