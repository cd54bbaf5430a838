package udf

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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

// gatedStore is a memStore whose Load waits for its signature's gate to
// open, counting the loads of each view and the most running at once.
type gatedStore struct {
	*memStore
	gates map[string]chan struct{}

	mu       sync.Mutex
	loads    map[string]int
	order    []string
	running  int
	parallel int
}

func (s *gatedStore) Load(sig Signature) ([]byte, bool) {
	s.mu.Lock()
	s.loads[sig.ViewName()]++
	s.order = append(s.order, sig.ViewName())
	s.running++
	s.parallel = max(s.parallel, s.running)
	s.mu.Unlock()
	if g := s.gates[sig.ViewName()]; g != nil {
		<-g
	}
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	return s.memStore.Load(sig)
}

// TestLoadRunsOutsideTheLock: Load opens the entries it has not seen side
// by side, at most Workers at once, and without the manager's lock: while
// they load, a signature loaded before answers, AggOf and Claims.Add of
// one being loaded wait for its load, a loss of rows reported meanwhile
// shrinks it as it lands, and each signature is loaded once. With one
// worker the loads run one at a time, in the order given.
func TestLoadRunsOutsideTheLock(t *testing.T) {
	sigs := []Signature{
		NewSignature("video", "a", []expr.Expr{expr.NewColumn("frame")}),
		NewSignature("video", "b", []expr.Expr{expr.NewColumn("frame")}),
		NewSignature("video", "c", []expr.Expr{expr.NewColumn("frame")}),
	}
	open := NewSignature("video", "open", []expr.Expr{expr.NewColumn("frame")})
	mem := newMemStore()
	for _, sig := range append([]Signature{open}, sigs...) {
		mem.pred[sig.ViewName()] = encodePredicate(rangeDNF(t, 0, 100))
		mem.survived[sig.ViewName()] = rangeDNF(t, 0, 50)
	}
	s := &gatedStore{memStore: mem, gates: map[string]chan struct{}{}, loads: map[string]int{}}
	m := NewManager(s)
	m.AggOf(open)
	for _, sig := range sigs {
		s.gates[sig.ViewName()] = make(chan struct{})
	}
	loaded := make(chan struct{})
	go func() {
		m.Load(append(sigs, sigs[0]), 2)
		close(loaded)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s.mu.Lock()
		n := s.running
		s.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d loads running, want 2 at once", n)
		}
	}
	if !holds(m.AggOf(open), 70) {
		t.Fatal("the signature loaded before lost its predicate")
	}
	m.ShrinkView(sigs[0].ViewName())
	waited, gate := make(chan symbolic.DNF, 2), rangeDNF(t, 200, 300)
	go func() { waited <- m.AggOf(sigs[0]) }()
	go func() {
		c := m.Begin()
		c.Add(sigs[2], gate)
		waited <- m.AggOf(sigs[2])
		c.Abort()
	}()
	for _, sig := range sigs {
		close(s.gates[sig.ViewName()])
	}
	<-loaded
	for range 2 {
		<-waited
	}
	if s.parallel != 2 {
		t.Fatalf("%d loads ran at once, want 2", s.parallel)
	}
	for _, sig := range sigs {
		if n := s.loads[sig.ViewName()]; n != 1 {
			t.Fatalf("%s loaded %d times, want once", sig.ViewName(), n)
		}
	}
	if a := m.AggOf(sigs[0]); holds(a, 70) || !holds(a, 20) {
		t.Fatalf("a loss of rows reported while %s loaded left %s", sigs[0].ViewName(), a)
	}
	if a := m.AggOf(sigs[1]); !holds(a, 70) {
		t.Fatalf("%s loaded as %s", sigs[1].ViewName(), a)
	}

	s.order, s.parallel = nil, 0
	m.Reset()
	m.Load(sigs, 1)
	if want := []string{sigs[0].ViewName(), sigs[1].ViewName(), sigs[2].ViewName()}; !slices.Equal(s.order, want) || s.parallel != 1 {
		t.Fatalf("one worker loaded %v, %d at once; want %v one at a time", s.order, s.parallel, want)
	}
}

// TestLoadOfLoadedEntriesAllocatesNothing: a statement whose entries are
// all loaded pays Load nothing but the lookups — no goroutine, no
// allocation — and AggOf of a loaded entry allocates nothing either.
func TestLoadOfLoadedEntriesAllocatesNothing(t *testing.T) {
	m := NewManager(newMemStore())
	sigs := []Signature{
		NewSignature("video", "fasterrcnnresnet50", []expr.Expr{expr.NewColumn("frame")}),
		NewSignature("video", "colordet", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")}),
	}
	m.Load(sigs, 2)
	if n := testing.AllocsPerRun(100, func() {
		m.Load(sigs, 2)
		m.AggOf(sigs[1])
	}); n != 0 {
		t.Fatalf("Load and AggOf of loaded entries allocate %.1f times, want 0", n)
	}
}
