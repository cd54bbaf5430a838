package udf

import (
	"errors"
	"sync"
	"testing"

	"eva/internal/expr"
	"eva/internal/faults"
	"eva/internal/symbolic"
)

// memStore is a PredicateStore in memory: one snapshot per view, a
// stale mark, the survived predicate a test prescribes, and a log of
// the snapshots written in order.
type memStore struct {
	mu       sync.Mutex
	pred     map[string][]byte
	stale    map[string]bool
	survived map[string]symbolic.DNF
	writes   []string // "view: predicate" per Append/Shrink that changed something
	failNext error    // the next Append fails with it
}

func newMemStore() *memStore {
	return &memStore{pred: map[string][]byte{}, stale: map[string]bool{}, survived: map[string]symbolic.DNF{}}
}

func (s *memStore) Load(sig Signature) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pred[sig.ViewName()], s.stale[sig.ViewName()]
}

func (s *memStore) Survived(sig Signature) symbolic.DNF {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.survived[sig.ViewName()]
}

func (s *memStore) Append(sig Signature, pred []byte, _ *faults.Injector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failNext; err != nil {
		s.failNext = nil
		return err
	}
	s.put(sig, pred)
	return nil
}

func (s *memStore) Shrink(sig Signature, pred []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stale[sig.ViewName()] = false
	s.put(sig, pred)
}

func (s *memStore) put(sig Signature, pred []byte) {
	s.pred[sig.ViewName()] = pred
	d := symbolic.False()
	if len(pred) > 0 {
		d, _ = symbolic.DecodeDNF(pred)
	}
	s.writes = append(s.writes, d.String())
}

func detSig() Signature {
	return NewSignature("video", "det", []expr.Expr{expr.NewColumn("frame")})
}

func holds(d symbolic.DNF, id float64) bool {
	ok, _ := d.Evaluate(map[string]symbolic.Value{"id": symbolic.Num(id)})
	return ok
}

// TestClaimsCommitAbort: a claim is visible to planning while its
// statement runs, promised — and written, after the fact — only by
// Commit, and gone without a trace after Abort.
func TestClaimsCommitAbort(t *testing.T) {
	store := newMemStore()
	m := NewManager(store)
	sig := detSig()

	failed := m.Begin()
	failed.Add(sig, rangeDNF(t, 0, 100))
	if !holds(m.AggOf(sig), 50) {
		t.Fatal("a claim in flight is not part of what planning sees")
	}
	failed.Abort()
	if !m.AggOf(sig).IsFalse() || len(store.writes) != 0 {
		t.Fatalf("after Abort p_u = %s, %d snapshots written; want FALSE, none", m.AggOf(sig), len(store.writes))
	}

	ok := m.Begin()
	ok.Add(sig, rangeDNF(t, 0, 100))
	if len(store.writes) != 0 {
		t.Fatal("a snapshot was written at plan time")
	}
	if _, err := ok.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if len(store.writes) != 1 || !holds(m.AggOf(sig), 50) {
		t.Fatalf("after Commit: writes %v, p_u %s", store.writes, m.AggOf(sig))
	}

	// What was written is what a new process loads.
	m2 := NewManager(store)
	if got := m2.AggOf(sig); !got.Equal(m.AggOf(sig)) {
		t.Errorf("reloaded p_u = %s, want %s", got, m.AggOf(sig))
	}
}

// TestConcurrentClaimsCommitOnlyTheirOwn: with two statements in flight
// on one signature, planning sees both gates, the one that commits
// persists only its own (the other's rows are not all stored yet), and
// the one that fails takes its gate back out.
func TestConcurrentClaimsCommitOnlyTheirOwn(t *testing.T) {
	store := newMemStore()
	m := NewManager(store)
	sig := detSig()
	a, b := m.Begin(), m.Begin()
	a.Add(sig, rangeDNF(t, 0, 100))
	b.Add(sig, rangeDNF(t, 200, 300))
	if agg := m.AggOf(sig); !holds(agg, 50) || !holds(agg, 250) {
		t.Fatalf("planning sees %s, want both gates", agg)
	}
	if _, err := a.Commit(nil); err != nil {
		t.Fatal(err)
	}
	persisted, _ := symbolic.DecodeDNF(store.pred[sig.ViewName()])
	if !holds(persisted, 50) || holds(persisted, 250) {
		t.Fatalf("persisted %s, want a's gate only", persisted)
	}
	b.Abort()
	if agg := m.AggOf(sig); !holds(agg, 50) || holds(agg, 250) {
		t.Fatalf("after b failed p_u = %s, want a's gate only", agg)
	}
}

// TestCommitStopsAtAFailedSnapshot: memory never runs ahead of the log.
// A snapshot that cannot be written leaves its claim (and those after
// it) in flight, the caller retries or gives up.
func TestCommitStopsAtAFailedSnapshot(t *testing.T) {
	store := newMemStore()
	m := NewManager(store)
	first, second := detSig(), NewSignature("video", "color", []expr.Expr{expr.NewColumn("frame"), expr.NewColumn("bbox")})
	c := m.Begin()
	c.Add(first, rangeDNF(t, 0, 100))
	c.Add(second, rangeDNF(t, 0, 100))
	boom := errors.New("disk on fire")
	store.failNext = boom
	sig, err := c.Commit(nil)
	if err != boom || sig.Key() != first.Key() || len(store.writes) != 0 {
		t.Fatalf("Commit = %v, %v; writes %v", sig, err, store.writes)
	}
	if _, err := c.Commit(nil); err != nil || len(store.writes) != 2 {
		t.Fatalf("retry: %v; writes %v", err, store.writes)
	}

	store.failNext = boom
	if err := m.Commit(first, rangeDNF(t, 500, 600)); err != boom {
		t.Fatalf("Manager.Commit = %v", err)
	}
	if holds(m.AggOf(first), 550) {
		t.Error("a commit that failed and was abandoned still shows in p_u")
	}
}

// TestLoadAtFirstSight: an entry starts from its view's snapshot —
// FALSE when there is none or it does not decode, and cut down to what
// survived, with the loss reported, when the store calls it stale.
func TestLoadAtFirstSight(t *testing.T) {
	sig := detSig()
	store := newMemStore()
	store.pred[sig.ViewName()] = []byte("not a predicate")
	if got := NewManager(store).AggOf(sig); !got.IsFalse() {
		t.Errorf("undecodable snapshot loaded as %s", got)
	}

	store.pred[sig.ViewName()] = rangeDNF(t, 0, 100).AppendBinary(nil)
	store.stale[sig.ViewName()] = true
	store.survived[sig.ViewName()] = rangeDNF(t, 0, 40)
	m := NewManager(store)
	var lost symbolic.DNF
	m.OnLost(func(s Signature, d symbolic.DNF) { lost = d })
	agg := m.AggOf(sig)
	if !holds(agg, 20) || holds(agg, 60) {
		t.Errorf("stale snapshot loaded as %s, want it cut to [0,40)", agg)
	}
	if holds(lost, 20) || !holds(lost, 60) {
		t.Errorf("lost = %s, want [40,100)", lost)
	}
	if store.stale[sig.ViewName()] || len(store.writes) != 1 {
		t.Errorf("the shrunken snapshot was not written back: stale %v, writes %v", store.stale[sig.ViewName()], store.writes)
	}
}

// TestShrinkCutsClaimsInFlight: rows lost under a running statement are
// lost to its claim too — what it commits afterwards cannot promise them.
func TestShrinkCutsClaimsInFlight(t *testing.T) {
	store := newMemStore()
	m := NewManager(store)
	sig := detSig()
	if err := m.Commit(sig, rangeDNF(t, 0, 100)); err != nil {
		t.Fatal(err)
	}
	c := m.Begin()
	c.Add(sig, rangeDNF(t, 100, 200))
	store.survived[sig.ViewName()] = symbolic.False() // the view was evicted
	m.Shrink(sig)
	if !m.AggOf(sig).IsFalse() {
		t.Fatalf("after the shrink planning sees %s", m.AggOf(sig))
	}
	if _, err := c.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.AggOf(sig); !got.IsFalse() {
		t.Errorf("the claim committed %s over an evicted view", got)
	}
	m.Shrink(NewSignature("video", "never-seen", nil)) // nothing to do, nothing to load
	if len(m.Entries()) != 1 {
		t.Errorf("Shrink created an entry: %d", len(m.Entries()))
	}
}
