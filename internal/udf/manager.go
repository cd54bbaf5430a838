package udf

import (
	"runtime"
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
// signature's view log carries the snapshot of its own p_u.
type PredicateStore interface {
	// Load returns the snapshot persisted for the signature's view
	// (empty: none) and whether it is stale — the view has lost rows
	// since it was written.
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
// A load opens the view when it is not open yet, which replays its log,
// so it runs outside mu: an entry being loaded has an in-flight handle
// (loading) that other callers wait on, and is visible in entries only
// once it has loaded. No replay runs under mu.
type Manager struct {
	store PredicateStore // nil: predicates live and die with the process
	// onLost, when set, is told each time a signature's predicate had to
	// give up a region because its view lost the rows (corruption found
	// at load or by a scrub). Called under mu: it must not call back in.
	onLost func(sig Signature, lost symbolic.DNF)

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu; the loaded entries
	// loads are the entries being loaded, by key. guarded by mu.
	loads map[string]*loading
	// gen counts Resets: a load begun before one installs nothing.
	// guarded by mu.
	gen uint64
}

// loading is the in-flight handle of one entry being loaded: done closes
// once the entry is visible or a Reset dropped it, and shrink records a
// ShrinkView that came while it loaded — the view may have lost rows
// after the load read its snapshot — which the load then applies.
type loading struct {
	sig    Signature
	key    string
	gen    uint64
	done   chan struct{}
	shrink bool
}

// NewManager returns an empty manager over the store (nil keeps
// predicates in memory only).
func NewManager(store PredicateStore) *Manager {
	return &Manager{store: store, entries: map[string]*entry{}, loads: map[string]*loading{}}
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

// lockEntry locks mu and returns the live entry for a signature, loaded
// on first sight (load) or waited for while another caller loads it.
// The caller unlocks mu; the returned pointer must not escape the
// critical section.
func (m *Manager) lockEntry(sig Signature) *entry {
	var buf [96]byte
	key := sig.appendKey(buf[:0])
	m.mu.Lock()
	for {
		if e, ok := m.entries[string(key)]; ok {
			return e
		}
		l, busy := m.loads[string(key)]
		if !busy {
			l = m.beginLocked(sig, string(key))
		}
		m.mu.Unlock()
		if busy {
			<-l.done
		} else {
			m.load(l)
		}
		m.mu.Lock()
	}
}

// beginLocked registers the in-flight handle of a load of key. Callers
// hold mu.
func (m *Manager) beginLocked(sig Signature, key string) *loading {
	l := &loading{sig: sig, key: key, gen: m.gen, done: make(chan struct{})}
	m.loads[key] = l
	return l
}

// load creates the entry l stands for from the view's persisted
// snapshot — FALSE (§4.1) when there is none or it cannot be decoded —
// outside mu, and makes it visible, cut down to what the view still
// holds when the store calls it stale or a ShrinkView came meanwhile.
func (m *Manager) load(l *loading) {
	sig := l.sig
	e := &entry{sig: sig, view: sig.ViewName(), committed: symbolic.False(), agg: symbolic.False()}
	stale := false
	if m.store != nil {
		var pred []byte
		pred, stale = m.store.Load(sig)
		if len(pred) > 0 {
			if d, err := symbolic.DecodeDNF(pred); err == nil {
				e.committed, e.agg = d, d
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if l.gen == m.gen {
		m.entries[l.key] = e
		if stale || l.shrink {
			m.shrinkLocked(e)
		}
	}
	delete(m.loads, l.key)
	close(l.done)
}

// Load makes the entries of sigs visible, as AggOf would one at a time,
// and returns once they are: the planner hands it every signature a
// statement will ask about before it asks, so that the views behind the
// ones not seen yet open side by side. It loads them outside mu, at most
// Workers(workers) at once — the calling goroutine among them — and with
// one worker one at a time, in the order given. A signature loaded
// already, or being loaded by another caller (whose load AggOf then
// waits for), costs one map lookup: a statement whose entries are all
// loaded starts no goroutine and allocates nothing.
func (m *Manager) Load(sigs []Signature, workers int) {
	var todo []*loading
	m.mu.Lock()
	for i := range sigs {
		var buf [96]byte
		key := sigs[i].appendKey(buf[:0])
		_, loaded := m.entries[string(key)]
		if _, busy := m.loads[string(key)]; !loaded && !busy {
			todo = append(todo, m.beginLocked(sigs[i], string(key)))
		}
	}
	m.mu.Unlock()
	if len(todo) == 0 {
		return
	}
	workers = min(Workers(workers), len(todo))
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
			m.load(todo[i])
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
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
// replaces the durable one. A signature the manager has not seen needs
// nothing: the store keeps its snapshot marked stale, and first sight
// shrinks it. One being loaded is shrunk when its load lands, for the
// load may have read the snapshot before the loss.
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
	// lint:unordered one load at most is of a view
	for _, l := range m.loads {
		if strings.EqualFold(l.sig.ViewName(), view) {
			l.shrink = true
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
// workload run): each is looked up in the store again on next sight,
// and a load in flight installs nothing.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = map[string]*entry{}
	m.gen++
}
