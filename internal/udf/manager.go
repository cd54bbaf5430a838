package udf

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"eva/internal/faults"
	"eva/internal/symbolic"
)

// Entry is a snapshot of the UDFManager's record for one UDF signature:
// the aggregated predicate p_u the planner sees (the union of the
// predicates of every invocation materialized so far and of those in
// flight — FALSE until the UDF first runs) and the name of the backing
// materialized view.
type Entry struct {
	Sig      Signature
	Agg      symbolic.DNF
	ViewName string
}

// PredicateStore is where aggregated predicates are durable: each
// signature's view log carries the snapshot of its own p_u. Open is the
// one call that may open a view log, and the manager makes it without
// its lock; the others read or write a view that is open already, and
// are called under the lock.
type PredicateStore interface {
	// Open opens the signature's view if its log is on disk and it is
	// not open yet. Concurrent calls for one view share one open.
	Open(sig Signature)
	// Load returns the snapshot persisted for the signature's open view
	// (empty: none, or the view is not open) and whether it is stale —
	// the view has lost rows since it was written.
	Load(sig Signature) (pred []byte, stale bool)
	// Survived returns the predicate bounding what the signature's view
	// still holds after a loss of rows.
	Survived(sig Signature) symbolic.DNF
	// Append makes pred the view's durable snapshot, after the rows it
	// describes: one attempt, drawing write faults from inj.
	Append(sig Signature, pred []byte, inj *faults.Injector) error
	// Shrink replaces a stale snapshot by pred, what the survived rows
	// still prove. Best effort.
	Shrink(sig Signature, pred []byte)
}

// entry is the live record of one signature. Three predicates:
//
//   - committed is the union of the gates of the statements whose
//     STOREs all succeeded — everything it claims is in the view. It is
//     the only predicate ever persisted.
//   - flights are the gates of statements that are executing: their
//     rows are being stored, nothing is promised yet.
//   - agg is their union, what planning sees, so a concurrent session
//     plans a join against rows another is still producing (and waits
//     for them under the shared-view claim protocol) instead of
//     planning to recompute them.
//
// agg is kept, not derived per lookup: a statement's claim unions its
// gate in once, and only a failed statement makes it be rebuilt.
type entry struct {
	sig       Signature
	view      string
	committed symbolic.DNF
	agg       symbolic.DNF
	flights   []*flight
}

// flight is one executing statement's claim on one signature.
type flight struct {
	e    *entry
	gate symbolic.DNF
}

// Manager is the UDFMANAGER component (§3.1): it maps UDF signatures
// to their aggregated predicates and materialized views, and answers
// the symbolic reuse queries (p∩, p−) the optimizer issues. With a
// PredicateStore the committed predicates outlive the process: an entry
// is loaded from its view's log the first time its signature is seen,
// and every change to what it promises is written back.
//
// A first sight is two steps. The view is opened outside mu
// (PredicateStore.Open: the storage engine's open, which replays the
// log once for every caller that reaches it at once); then, in one
// critical section, the open view's snapshot and stale mark are read and
// the entry is installed — by the first caller to get there. No view
// log is opened under mu.
type Manager struct {
	store PredicateStore // nil: predicates live and die with the process
	// onLost, when set, is told each time a signature's predicate had to
	// give up a region because its view lost the rows (corruption found
	// at load or by a scrub). Called under mu: it must not call back in.
	onLost func(sig Signature, lost symbolic.DNF)

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
}

// NewManager returns an empty manager over the store (nil keeps
// predicates in memory only).
func NewManager(store PredicateStore) *Manager {
	return &Manager{store: store, entries: map[string]*entry{}}
}

// OnLost installs the hook told about regions a predicate gave up
// because its view lost rows. Install it before the manager is used.
func (m *Manager) OnLost(f func(sig Signature, lost symbolic.DNF)) { m.onLost = f }

// Workers is the parallelism a statement's Workers setting asks for:
// runtime.GOMAXPROCS when it is 0, floored at 1. It is the only place
// the default is decided — for the executor's evaluation workers
// (exec.Context) and for the views Load opens at once.
func Workers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// RunParallel invokes fn(worker, i) for every i in [0, n), spreading
// calls across at most workers goroutines and blocking until all
// complete. Callers give each index a disjoint result slot, so fn
// needs no locking of its own; the worker argument (0-based, stable
// per goroutine) lets callers hand each goroutine private scratch
// space, which is how the apply operator's eval loop stays off the
// heap. The calling goroutine is worker 0 and claims indexes like the
// helpers it starts, and it waits for the calls made, not for the
// helpers: a helper the scheduler starts late finds nothing left and
// costs the caller nothing. (On a 2-vCPU VM, waking a helper took
// about 30 µs; a sparse video's scalar UDF batches evaluate in 8.) With
// one worker it degenerates to an inline loop, in index order — the
// serial engine's exact code path, always worker 0.
func RunParallel(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var calls sync.WaitGroup
	calls.Add(n)
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
			calls.Done()
		}
	}
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	calls.Wait()
}

// lockEntry locks mu and returns the live entry for a signature, loaded
// on first sight: the view is opened with mu released, and the entry is
// installed under it unless another caller installed it meanwhile. The
// caller unlocks mu; the returned pointer must not escape the critical
// section.
func (m *Manager) lockEntry(sig Signature) *entry {
	var buf [96]byte
	key := sig.appendKey(buf[:0])
	m.mu.Lock()
	if e, ok := m.entries[string(key)]; ok {
		return e
	}
	if m.store != nil {
		m.mu.Unlock()
		m.store.Open(sig)
		m.mu.Lock()
		if e, ok := m.entries[string(key)]; ok {
			return e
		}
	}
	return m.installLocked(sig, string(key))
}

// installLocked creates the entry of key from its open view's persisted
// snapshot — FALSE (§4.1) when there is none or it cannot be decoded —
// and makes it visible, cut down to what the view still holds when the
// store calls it stale. Storage marks a view stale before it reports a
// loss of rows (ShrinkView), so a loss reported before the install,
// which found no entry to shrink, is applied here. Callers hold mu.
func (m *Manager) installLocked(sig Signature, key string) *entry {
	e := &entry{sig: sig, view: sig.ViewName(), committed: symbolic.False(), agg: symbolic.False()}
	m.entries[key] = e
	if m.store == nil {
		return e
	}
	pred, stale := m.store.Load(sig)
	if len(pred) > 0 {
		if d, err := symbolic.DecodeDNF(pred); err == nil {
			e.committed, e.agg = d, d
		}
	}
	if stale {
		m.shrinkLocked(e)
	}
	return e
}

// Load makes the entries of sigs visible, as AggOf would one at a time,
// and returns once they are: the planner hands it every signature a
// statement will ask about before it asks, so that the views behind the
// ones not seen yet open side by side. It opens them outside mu, at most
// Workers(workers) at once — the calling goroutine among them — and with
// one worker one at a time, in the order given. A signature loaded
// already costs one map lookup: a statement whose entries are all
// loaded starts no goroutine and allocates nothing. One that another
// caller is loading is opened again, which waits for that caller's
// open in the store, and is installed by whichever gets there first.
func (m *Manager) Load(sigs []Signature, workers int) {
	var todo []Signature
	m.mu.Lock()
	for i := range sigs {
		var buf [96]byte
		_, loaded := m.entries[string(sigs[i].appendKey(buf[:0]))]
		if !loaded && !slices.ContainsFunc(todo, sigs[i].equal) {
			todo = append(todo, sigs[i])
		}
	}
	m.mu.Unlock()
	if len(todo) == 0 {
		return
	}
	RunParallel(Workers(workers), len(todo), func(_, i int) {
		m.lockEntry(todo[i])
		m.mu.Unlock()
	})
}

func (e *entry) snapshot() Entry { return Entry{Sig: e.sig, Agg: e.agg, ViewName: e.view} }

// AggOf returns the signature's aggregated predicate p_u as planning
// sees it, loading the entry on first sight. This is the race-safe
// accessor the optimizer uses while concurrent statements claim and
// commit.
func (m *Manager) AggOf(sig Signature) symbolic.DNF {
	e := m.lockEntry(sig)
	defer m.mu.Unlock()
	return e.agg
}

// Claims are one executing statement's claims on aggregated predicates:
// the gates of the invocations its plan materializes. The planner adds
// them (Add), and the statement's end settles them — Commit for the
// invocations whose STOREs all succeeded, Abort for the rest. Owned by
// the statement's goroutine. A nil *Claims is a plan that claims nothing
// (EXPLAIN): Add and Abort do nothing.
type Claims struct {
	m       *Manager
	flights []*flight
}

// Begin opens the claims of one statement.
func (m *Manager) Begin() *Claims { return &Claims{m: m} }

// Add claims gate for the signature: the statement evaluates the
// invocation wherever the view does not hold it yet and stores the
// results, so until it ends p_u ← UNION(p_u, gate) is what other
// statements should plan against. The planner calls it only for an
// invocation it gave a STORE; one whose DIFF is FALSE adds nothing to
// p_u and stores nothing.
func (c *Claims) Add(sig Signature, gate symbolic.DNF) {
	if c == nil {
		return
	}
	e := c.m.lockEntry(sig)
	defer c.m.mu.Unlock()
	f := &flight{e: e, gate: gate}
	e.flights = append(e.flights, f)
	e.agg = symbolic.Union(e.agg, gate)
	c.flights = append(c.flights, f)
}

// Commit promotes the statement's claims, in the order they were added:
// committed ← UNION(committed, gate), with the new snapshot appended to
// the view's log — after the rows the statement stored, which is what
// makes it exact — before memory moves. It stops at the first snapshot
// that cannot be written and returns that claim's signature with the
// error; the claims from there on stay in flight, so the caller may
// free disk space or wait out a transient fault and call Commit again,
// or give up with Abort. inj is the statement's write-fault schedule.
func (c *Claims) Commit(inj *faults.Injector) (Signature, error) {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(c.flights) > 0 {
		f := c.flights[0]
		e := f.e
		// With nothing else in flight, agg is already committed ∪ gate.
		next := e.agg
		if len(e.flights) > 1 {
			next = symbolic.Union(e.committed, f.gate)
		}
		if m.store != nil {
			if err := m.store.Append(e.sig, encodePredicate(next), inj); err != nil {
				return e.sig, err
			}
		}
		e.committed = next
		e.dropFlight(f)
		c.flights = c.flights[1:]
	}
	return Signature{}, nil
}

// Abort withdraws the claims that are still in flight: the statement
// failed before their STOREs were complete, so what it stored is in the
// view but no predicate may promise it. p_u falls back to the committed
// predicate and the other statements' claims.
func (c *Claims) Abort() { c.AbortIf(func(Signature) bool { return true }) }

// AbortIf withdraws the claims in flight for which unfinished reports
// true, asked in the order the claims were added; the rest stay, to be
// committed.
func (c *Claims) AbortIf(unfinished func(Signature) bool) {
	if c == nil {
		return
	}
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := c.flights[:0]
	for _, f := range c.flights {
		e := f.e
		if !unfinished(e.sig) {
			kept = append(kept, f)
			continue
		}
		e.dropFlight(f)
		e.agg = e.committed
		for _, o := range e.flights {
			e.agg = symbolic.Union(e.agg, o.gate)
		}
	}
	c.flights = kept
}

func (e *entry) dropFlight(f *flight) {
	for i, o := range e.flights {
		if o == f {
			e.flights = append(e.flights[:i], e.flights[i+1:]...)
			return
		}
	}
}

// encodePredicate is the snapshot written for p: empty for FALSE, which
// is also what a log without a snapshot reads as.
func encodePredicate(p symbolic.DNF) []byte {
	if p.IsFalse() {
		return nil
	}
	return p.AppendBinary(nil)
}

// ShrinkView cuts the predicates of the signature the named view backs
// down to what the view still holds after losing rows — a corrupt record
// salvaged around, an eviction: p ← INTER(p, survived) for the committed
// predicate, every claim in flight and their union, so the optimizer's
// DIFF residual re-plans exactly the lost tuples (and the next STORE
// re-commits them through the ordinary path). The shrunken snapshot
// replaces the durable one. A signature the manager has not installed
// needs nothing: the store keeps its snapshot marked stale, and the
// install shrinks it.
func (m *Manager) ShrinkView(view string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// lint:unordered one entry at most backs a view
	for _, e := range m.entries {
		if strings.EqualFold(e.view, view) {
			m.shrinkLocked(e)
			return
		}
	}
}

func (m *Manager) shrinkLocked(e *entry) {
	if m.store == nil {
		return
	}
	survived := m.store.Survived(e.sig)
	lost := symbolic.Diff(survived, e.committed)
	e.committed = symbolic.Inter(e.committed, survived)
	e.agg = symbolic.Inter(e.agg, survived)
	for _, f := range e.flights {
		f.gate = symbolic.Inter(f.gate, survived)
	}
	m.store.Shrink(e.sig, encodePredicate(e.committed))
	if m.onLost != nil && !lost.IsFalse() {
		m.onLost(e.sig, lost)
	}
}

// EntryByView returns a snapshot of the entry backed by the named
// materialized view, if the manager has seen its signature — the
// reverse mapping corruption repair needs (storage reports a view name;
// the manager owns the predicate).
func (m *Manager) EntryByView(view string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if strings.EqualFold(e.view, view) {
			return e.snapshot(), true
		}
	}
	return Entry{}, false
}

// Reset forgets all entries (the views were dropped, or a fresh
// workload run): each is looked up in the store again on next sight.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = map[string]*entry{}
}
