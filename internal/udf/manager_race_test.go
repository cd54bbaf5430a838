package udf

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// gatedStore is a memStore whose Open waits for its signature's gate to
// open, counting the opens and the snapshot reads of each view and the
// most opens running at once.
type gatedStore struct {
	*memStore
	gates map[string]chan struct{}

	mu       sync.Mutex
	opens    map[string]int
	reads    map[string]int
	order    []string
	running  int
	parallel int
}

func newGatedStore(mem *memStore) *gatedStore {
	return &gatedStore{memStore: mem, gates: map[string]chan struct{}{}, opens: map[string]int{}, reads: map[string]int{}}
}

func (s *gatedStore) Open(sig Signature) {
	s.mu.Lock()
	s.opens[sig.ViewName()]++
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
}

func (s *gatedStore) Load(sig Signature) ([]byte, bool) {
	s.mu.Lock()
	s.reads[sig.ViewName()]++
	s.mu.Unlock()
	return s.memStore.Load(sig)
}

// waitOpens waits until n opens are held at their gates.
func (s *gatedStore) waitOpens(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if running == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d opens running, want %d", running, n)
		}
	}
}

// markLost does what storage does when a view loses rows: it marks the
// view's snapshot stale, then tells the manager.
func markLost(m *Manager, mem *memStore, sig Signature) {
	mem.mu.Lock()
	mem.stale[sig.ViewName()] = true
	mem.mu.Unlock()
	m.ShrinkView(sig.ViewName())
}

// TestLoadRunsOutsideTheLock: Load opens the views of the entries it has
// not seen side by side, at most Workers at once, and without the
// manager's lock: while they open, a signature loaded before answers,
// AggOf and Claims.Add of one being loaded wait for its view to open
// (each caller opens it; the store shares one replay among them), a loss
// of rows the store marked meanwhile shrinks it as it is installed, and
// each signature's snapshot is read and installed once. With one worker
// the opens run one at a time, in the order given.
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
	s := newGatedStore(mem)
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
	s.waitOpens(t, 2)
	s.mu.Lock()
	parallel := s.parallel
	s.mu.Unlock()
	if parallel != 2 {
		t.Fatalf("%d opens ran at once, want 2", parallel)
	}
	if !holds(m.AggOf(open), 70) {
		t.Fatal("the signature loaded before lost its predicate")
	}
	markLost(m, mem, sigs[0])
	waited, gate := make(chan symbolic.DNF, 2), rangeDNF(t, 200, 300)
	go func() { waited <- m.AggOf(sigs[0]) }()
	go func() {
		c := m.Begin()
		c.Add(sigs[2], gate)
		waited <- m.AggOf(sigs[2])
		c.Abort()
	}()
	s.waitOpens(t, 4)
	for _, sig := range sigs {
		close(s.gates[sig.ViewName()])
	}
	<-loaded
	for range 2 {
		<-waited
	}
	for _, sig := range sigs {
		if n := s.reads[sig.ViewName()]; n != 1 {
			t.Fatalf("%s read and installed %d times, want once", sig.ViewName(), n)
		}
	}
	if a, b, c := s.opens[sigs[0].ViewName()], s.opens[sigs[1].ViewName()], s.opens[sigs[2].ViewName()]; a != 2 || b != 1 || c < 1 || c > 2 {
		t.Fatalf("opens %d, %d, %d; want one per caller: 2 (Load, AggOf), 1 (Load), 1 or 2 (Claims.Add, and Load unless it came after the install)", a, b, c)
	}
	if a := m.AggOf(sigs[0]); holds(a, 70) || !holds(a, 20) {
		t.Fatalf("a loss of rows reported while %s opened left %s", sigs[0].ViewName(), a)
	}
	if a := m.AggOf(sigs[1]); !holds(a, 70) {
		t.Fatalf("%s loaded as %s", sigs[1].ViewName(), a)
	}

	s.order, s.parallel = nil, 0
	m.Reset()
	m.Load(sigs, 1)
	if want := []string{sigs[0].ViewName(), sigs[1].ViewName(), sigs[2].ViewName()}; !slices.Equal(s.order, want) || s.parallel != 1 {
		t.Fatalf("one worker opened %v, %d at once; want %v one at a time", s.order, s.parallel, want)
	}
}

// TestLossOfRowsMeetsFirstSight: a loss of rows reported while a
// signature's view opens — before its entry is installed, so the shrink
// finds no entry, but after storage marked the snapshot stale — cuts p_u
// to what survived as the entry is installed, and one reported after the
// install cuts the installed entry; either way the lost region is
// reported once.
func TestLossOfRowsMeetsFirstSight(t *testing.T) {
	for _, before := range []bool{true, false} {
		name := "after-install"
		if before {
			name = "before-install"
		}
		t.Run(name, func(t *testing.T) {
			sig := detSig()
			view := sig.ViewName()
			mem := newMemStore()
			mem.pred[view] = encodePredicate(rangeDNF(t, 0, 100))
			mem.survived[view] = rangeDNF(t, 0, 40)
			s := newGatedStore(mem)
			s.gates[view] = make(chan struct{})
			m := NewManager(s)
			var lost []symbolic.DNF
			m.OnLost(func(_ Signature, d symbolic.DNF) { lost = append(lost, d) })
			loaded := make(chan struct{})
			go func() {
				m.Load([]Signature{sig}, 1)
				close(loaded)
			}()
			s.waitOpens(t, 1)
			if before {
				markLost(m, mem, sig)
			}
			close(s.gates[view])
			<-loaded
			if !before {
				markLost(m, mem, sig)
			}
			if agg := m.AggOf(sig); holds(agg, 60) || !holds(agg, 20) {
				t.Errorf("p_u = %s, want it cut to [0,40)", agg)
			}
			if len(lost) != 1 || holds(lost[0], 20) || !holds(lost[0], 60) {
				t.Errorf("lost regions %v, want [40,100) once", lost)
			}
			if s.reads[view] != 1 || mem.stale[view] {
				t.Errorf("snapshot read %d times, stale %v; want read once and shrunk", s.reads[view], mem.stale[view])
			}
		})
	}
}

// TestRunParallelPool: every index runs once, on a worker id below the
// bound; with one worker always on worker 0; with nothing to do, never.
func TestRunParallelPool(t *testing.T) {
	var sum atomic.Int64
	RunParallel(4, 100, func(w, i int) {
		if w < 0 || w >= 4 {
			t.Errorf("worker id %d out of range", w)
		}
		sum.Add(int64(i))
	})
	if got := sum.Load(); got != 4950 {
		t.Errorf("parallel sum = %d", got)
	}
	sum.Store(0)
	RunParallel(1, 10, func(w, i int) { // serial path, always worker 0
		if w != 0 {
			t.Errorf("serial worker id = %d", w)
		}
		sum.Add(int64(i))
	})
	if got := sum.Load(); got != 45 {
		t.Errorf("serial sum = %d", got)
	}
	RunParallel(8, 0, func(int, int) { t.Error("fn called for n=0") })
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
