// Disk-pressure survival, stage 2: benefit-ranked view eviction
// (DESIGN.md §16). When the disk budget tightens, the engine reclaims
// space along a degrade ladder — compact fragmented view logs first
// (they carry quarantined dead ranges), then evict whole cold views,
// lowest benefit first — and only when the ladder runs dry does an
// append surface the typed ErrDiskBudget. An eviction commits by one
// rename — the view's log is replaced by an empty generation — so a
// reopen at any kill-point sees either the intact view or an empty one,
// never a half-deleted zombie. The view's aggregated predicate is
// retracted by the eviction upcall, so the next query simply
// re-materializes it through the ordinary optimizer path.

package storage

import (
	"fmt"
	"sort"
	"strings"

	"eva/internal/faults"
)

// evictRetryMax bounds a single append's evict-retry loop — a backstop
// against unbounded injector schedules, far above what a real budget
// shortfall needs (each retry either freed bytes or drained a rule).
const evictRetryMax = 64

// EvictCandidate is one view's eviction-ranking snapshot.
type EvictCandidate struct {
	// Name is the view name.
	Name string
	// Footprint is the on-disk log size (the reclaimable bytes).
	Footprint int64
	// Rows and Keys are the materialized row and processed-key counts —
	// the recompute cost proxy.
	Rows, Keys int
	// LastTouch is the engine's access ordinal at the view's last use;
	// Now is the current ordinal. (Ordinals, not wall time: eviction
	// ranking stays deterministic and replayable.)
	LastTouch, Now uint64
}

// EvictRanker scores a candidate's retention benefit; the engine
// evicts lowest-score first. The default ranks by LastTouch (LRU);
// the eva layer installs the reuse-economics ranker (recompute cost ×
// recency-weighted hit rate per byte).
type EvictRanker func(EvictCandidate) float64

// SetBudget installs the engine's disk budget (nil disables
// budgeting; injected disk:full faults still drive the ladder).
func (e *Engine) SetBudget(b *DiskBudget) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget = b
	for _, v := range e.views {
		v.setBudget(b)
	}
	for _, vid := range e.videos {
		vid.setBudget(b)
	}
}

// Budget returns the engine's disk budget (nil when unbudgeted).
func (e *Engine) Budget() *DiskBudget {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.budget
}

// SetEvictPolicy installs the benefit ranker and the post-eviction
// upcall (called with no storage locks held; the eva layer uses it to
// retract the evicted view's aggregated predicate so the symbolic
// layer stays truthful). Either may be nil.
func (e *Engine) SetEvictPolicy(rank EvictRanker, onEvict func(view string)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ranker, e.onEvict = rank, onEvict
}

// SetRetryCharge installs the virtual-clock hook charged before each
// evict-retry of a disk-full append (the eva layer points it at the
// global clock's retry category).
func (e *Engine) SetRetryCharge(f func(attempt int)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retryCharge = f
}

// chargeRetry runs the installed retry-backoff hook, if any.
func (e *Engine) chargeRetry(attempt int) {
	e.mu.Lock()
	f := e.retryCharge
	e.mu.Unlock()
	if f != nil {
		f(attempt)
	}
}

// touchView stamps a view with the next access ordinal. Called on
// every engine-level view lookup, so ranking recency is per query,
// not per row.
func (e *Engine) touchView(v *View) {
	v.touch.Store(e.touchSeq.Add(1))
}

// Reclaim frees disk space until the budget has need bytes of
// headroom (or, when the shortage was injected rather than budgeted,
// until anything at all was freed), returning the bytes freed. The
// ladder: compact every fragmented view log, then evict whole views
// in ascending benefit order. exclude names the view whose append
// triggered the reclaim — evicting the log being appended would free
// nothing durable for the retry. Reclaim passes are serialized; the
// caller must hold no view locks.
func (e *Engine) Reclaim(need int64, exclude string) int64 {
	e.evictMu.Lock()
	defer e.evictMu.Unlock()
	b := e.Budget()
	var freed int64
	satisfied := func() bool {
		if freed <= 0 {
			return false
		}
		return b == nil || b.Headroom() >= need
	}

	// Tier 1: compaction. A quarantined log carries dead byte ranges
	// the generational rewrite leaves behind — space back without
	// giving up a single materialized row.
	for _, v := range e.evictSnapshot(exclude) {
		if v.Quarantine() == nil {
			continue
		}
		res, err := v.Compact()
		if err != nil {
			continue // the view stays; eviction below can still take it
		}
		if d := res.BytesBefore - res.BytesAfter; d > 0 {
			freed += d
			b.noteCompacted(d)
		}
		if satisfied() {
			return freed
		}
	}

	// Tier 2: whole-view eviction, lowest benefit first. Recency
	// weighting makes this cold-before-warm: a long-untouched view
	// ranks below a hot one regardless of recompute cost.
	cands := e.evictCandidates(exclude)
	rank := e.rankerOrDefault()
	sort.Slice(cands, func(i, j int) bool {
		si, sj := rank(cands[i]), rank(cands[j])
		if si != sj {
			return si < sj
		}
		return cands[i].Name < cands[j].Name
	})
	for _, c := range cands {
		v := e.Opened(c.Name)
		if v == nil {
			continue
		}
		got, err := v.evict()
		if err != nil || got <= 0 {
			continue
		}
		freed += got
		b.noteEvicted(got)
		if f := e.onEvictHook(); f != nil {
			f(c.Name)
		}
		if satisfied() {
			return freed
		}
	}
	return freed
}

// ReclaimOverHighWater is the periodic eviction pass: when the
// budget sits above 90% full it reclaims down to 70%, smoothing disk
// pressure out of the append hot path. No-op when unbudgeted or under
// the high-water mark.
func (e *Engine) ReclaimOverHighWater() int64 {
	b := e.Budget()
	if b == nil {
		return 0
	}
	st := b.Stats()
	if st.LimitBytes <= 0 || st.UsedBytes <= st.LimitBytes/10*9 {
		return 0
	}
	low := st.LimitBytes / 10 * 7
	return e.Reclaim(st.LimitBytes-low, "")
}

// evictSnapshot returns the open views except exclude, sorted by name
// for a deterministic ladder order.
func (e *Engine) evictSnapshot(exclude string) []*View {
	ex := strings.ToLower(exclude)
	e.mu.Lock()
	views := make([]*View, 0, len(e.views))
	// lint:unordered snapshot; sorted below
	for key, v := range e.views {
		if key == ex {
			continue
		}
		views = append(views, v)
	}
	e.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	return views
}

// evictCandidates snapshots the rankable views: open, alive, and
// holding something worth freeing.
func (e *Engine) evictCandidates(exclude string) []EvictCandidate {
	now := e.touchSeq.Load()
	var out []EvictCandidate
	for _, v := range e.evictSnapshot(exclude) {
		v.mu.RLock()
		ok := v.log.file != nil && !v.log.dead && v.rows.processed() > 0
		c := EvictCandidate{
			Name:      v.name,
			Footprint: v.log.footprint,
			Rows:      v.rows.len(),
			Keys:      v.rows.processed(),
			LastTouch: v.touch.Load(),
			Now:       now,
		}
		v.mu.RUnlock()
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// rankerOrDefault returns the installed ranker or LRU.
func (e *Engine) rankerOrDefault() EvictRanker {
	e.mu.Lock()
	r := e.ranker
	e.mu.Unlock()
	if r != nil {
		return r
	}
	return func(c EvictCandidate) float64 { return float64(c.LastTouch) }
}

// onEvictHook returns the installed eviction upcall.
func (e *Engine) onEvictHook() func(string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.onEvict
}

// evict replaces the view's log with an empty generation and returns
// the bytes freed. The view object stays published and usable —
// in-flight queries holding the pointer see an empty cache and
// re-evaluate missing keys through the ordinary per-key
// probe-or-evaluate path.
//
// Crash discipline: the rename inside TailLog.rewrite is the commit
// point, and the view:evict fault site has one kill-point on each side
// of it. Before it the view is intact on disk and in memory; a write or
// rename that fails leaves it so too. After it the log is empty, so any
// fault there — a crash or not — kills the in-process handle, whose
// memory would otherwise run ahead of disk.
func (v *View) evict() (int64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.log.check(); err != nil {
		return 0, err
	}
	site := faults.SiteViewEvict(v.name)
	// killPoint draws kill-point id with attempt = id+1, so scripted At
	// rules can target one: At{1} is before the rename, At{2} after it.
	killPoint := func(id int) error {
		err := v.inj.CheckEval(site, uint64(id), id+1)
		if err == nil {
			return nil
		}
		if id > 0 || faults.IsCrash(err) {
			v.log.dead = true
		}
		return fmt.Errorf("storage: view %s: evict: %w", v.name, err)
	}
	if err := killPoint(0); err != nil {
		return 0, err
	}
	freedFrom := v.log.footprint
	if err := v.log.rewrite(v.encodeHeader()); err != nil {
		return 0, fmt.Errorf("storage: view %s: evict: %w", v.name, err)
	}
	if err := killPoint(1); err != nil {
		return 0, err
	}
	v.resetReplayState()
	v.dropIndexLocked()
	// Every row is gone: whatever the manager still claims for this
	// view predates the loss (cleared by its ShrinkPredicate).
	v.predStale = true
	v.quar = nil
	return freedFrom - v.log.footprint, nil
}
