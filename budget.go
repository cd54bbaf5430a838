package eva

import (
	"time"

	"eva/internal/storage"
)

// Disk-pressure survival, stage 3 (DESIGN.md §16): this file is the
// eva layer's half of the storage budget — the benefit ranker that
// orders evictions by reuse economics, the eviction upcall that keeps
// the symbolic layer truthful, and the StorageStats surface.

// DiskStats snapshots the disk budget's accounting and the reclaim
// ladder's lifetime activity; see System.StorageStats.
type DiskStats = storage.DiskStats

// StorageStats bundles the durable-storage health counters: the disk
// budget's accounting plus the scrub cadence's activity.
type StorageStats struct {
	// Disk is the budget snapshot (zero when Config.DiskBudgetBytes is
	// 0 and no artifacts have been charged).
	Disk DiskStats
	// Scrub counts the scrub cadence's passes and degrades (zero when
	// Config.ScrubInterval is 0).
	Scrub ScrubberStats
}

// StorageStats snapshots the disk budget and scrub cadence counters.
func (s *System) StorageStats() StorageStats {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return StorageStats{Disk: s.store.Budget().Stats(), Scrub: s.scrub.ScrubStats}
}

// benefitRank scores a view's retention benefit as recompute cost ×
// recency-weighted hit rate per byte: the eviction ladder drops the
// lowest score first, so the views that are cheap to rebuild, rarely
// reused, long untouched or disproportionately large go before the
// expensive hot ones. A view is only future recompute cost — never
// data loss — so the ranking is pure economics.
func (s *System) benefitRank(c storage.EvictCandidate) float64 {
	keys := c.Keys
	if keys < 1 {
		keys = 1
	}
	// Recompute cost: the backing UDF's profiled per-invocation cost.
	// Views without predicate state yet fall back to the default UDF
	// cost so ranking stays total.
	costNS := float64(10 * time.Millisecond)
	hit := 0.5
	if entry, ok := s.mgr().EntryByView(c.Name); ok {
		if u, err := s.cat().UDF(entry.Sig.Name); err == nil && u.Cost > 0 {
			costNS = float64(u.Cost)
		}
		if st, ok := s.rt().CounterSnapshot()[entry.Sig.Name]; ok {
			// Laplace-smoothed reuse rate: how often a demanded tuple
			// was served from the view rather than re-evaluated.
			hit = float64(st.Reused+1) / float64(st.Total+2)
		}
	}
	// Recency weighting via access ordinals (virtual, deterministic):
	// the staler the view, the cheaper it is to let go.
	age := 1.0
	if c.Now > c.LastTouch {
		age += float64(c.Now - c.LastTouch)
	}
	bytes := c.Footprint
	if bytes < 1 {
		bytes = 1
	}
	return costNS * float64(keys) * hit / (age * float64(bytes))
}

// viewEvicted is the post-eviction upcall: the view's durable rows are
// gone, so its aggregated predicate must stop claiming them. An empty
// view proves nothing, so the shrink retracts it to FALSE (the durable
// copy went with the log) — the next query that needs the view sees a
// full DIFF residual and re-materializes it through the ordinary
// optimizer path. Any repair task, pending or just queued by the
// shrink, is moot.
func (s *System) viewEvicted(name string) {
	s.mgr().ShrinkView(name)
	s.clearRepair(name)
}
