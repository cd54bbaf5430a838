package udf

import (
	"sync"
	"testing"

	"eva/internal/expr"
	"eva/internal/symbolic"
	"eva/internal/types"
)

func rangeDNF(t *testing.T, lo, hi int64) symbolic.DNF {
	t.Helper()
	p := expr.NewAnd(
		expr.NewCmp(expr.OpGe, expr.NewColumn("id"), expr.NewConst(types.NewInt(lo))),
		expr.NewCmp(expr.OpLt, expr.NewColumn("id"), expr.NewConst(types.NewInt(hi))),
	)
	d, err := symbolic.FromExpr(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestManagerConcurrentCommitAndRead is the regression test for the
// aggregated-predicate race: optimizer threads used to read a live
// *Entry.Agg while a commit replaced it under the manager's lock,
// tripping the race detector. The snapshot API (AggOf/EntryByView
// return value copies) must let readers and committers run freely.
func TestManagerConcurrentCommitAndRead(t *testing.T) {
	m := NewManager(nil)
	sig := NewSignature("", "cartype", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")})
	const workers = 8
	const rounds = 50

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lo := int64((w*rounds + i) * 10)
				q := rangeDNF(t, lo, lo+10)
				switch i % 4 {
				case 0:
					_ = commit(m, sig, q)
				case 1:
					_ = m.AggOf(sig).AtomCount()
				case 2:
					_ = symbolic.Inter(m.AggOf(sig), q).IsFalse()
					failed := m.Begin()
					failed.Add(sig, q)
					failed.Abort()
				default:
					if e, ok := m.EntryByView(sig.ViewName()); ok {
						_ = e.Agg.String()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := len(m.entries); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
	if m.AggOf(sig).IsFalse() {
		t.Fatal("aggregated predicate still FALSE after commits")
	}
}

// TestManagerSnapshotIsolation checks that an EntryByView snapshot is
// not retroactively changed by a later commit — the property the
// optimizer relies on while planning against a fixed p_u.
func TestManagerSnapshotIsolation(t *testing.T) {
	m := NewManager(nil)
	sig := NewSignature("", "redness", []expr.Expr{expr.NewColumn("frame")})
	m.AggOf(sig)
	snap, ok := m.EntryByView(sig.ViewName())
	if !ok || !snap.Agg.IsFalse() {
		t.Fatalf("fresh entry p_u = %s (found %v), want FALSE", snap.Agg, ok)
	}
	if err := commit(m, sig, rangeDNF(t, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if !snap.Agg.IsFalse() {
		t.Fatalf("snapshot mutated by Commit: %s", snap.Agg)
	}
	if m.AggOf(sig).IsFalse() {
		t.Fatal("live entry not updated by Commit")
	}
}

func BenchmarkManagerAggOf(b *testing.B) {
	m := NewManager(nil)
	sig := NewSignature("", "cartype", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")})
	p := expr.NewCmp(expr.OpLt, expr.NewColumn("id"), expr.NewConst(types.NewInt(1000)))
	d, err := symbolic.FromExpr(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := commit(m, sig, d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.AggOf(sig).IsFalse() {
			b.Fatal("unexpected FALSE")
		}
	}
}
