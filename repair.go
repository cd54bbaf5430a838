package eva

import (
	"fmt"
	"math"
	"sort"

	"eva/internal/faults"
	"eva/internal/optimizer"
	"eva/internal/parser"
	"eva/internal/storage"
	"eva/internal/symbolic"
	"eva/internal/udf"
)

// Self-healing view storage, stages 2 and 3 (DESIGN.md §15): storage
// quarantines corrupt log ranges and keeps serving the salvaged rows
// (stage 1, internal/storage); this file turns a quarantine into a
// *symbolic repair* — the survived keys shrink the UDF's aggregated
// predicate, so the optimizer's DIFF residual re-plans exactly the
// lost tuples — and drives the background scrubber that finds silent
// corruption before a query does.

// Re-exported storage types for inspecting self-healing state.
type (
	// Quarantine records what corruption salvage lost and kept for one
	// view; see System.ViewQuarantine.
	Quarantine = storage.Quarantine
	// ScrubFinding is one view's result from a scrub pass.
	ScrubFinding = storage.ScrubResult
	// ScrubberStats counts background scrub passes and degradations.
	ScrubberStats = storage.ScrubStats
)

// ScrubReport is the outcome of one full scrub pass over every view.
type ScrubReport struct {
	// Views is the number of views verified.
	Views int
	// Quarantined is how many views hold a quarantine after the pass.
	Quarantined int
	// Findings holds the per-view results that need attention: fresh
	// corruption, standing quarantines, or verification errors.
	Findings []ScrubFinding
}

// RepairRecord is the outcome of repairing one quarantined view.
type RepairRecord struct {
	// View is the view name.
	View string
	// Ranges is how many lost id ranges were recomputed.
	Ranges int
	// RowsBefore/RowsAfter are the view's row counts around the repair.
	RowsBefore, RowsAfter int
	// Deferred is true when the view's keys are not id-granular (e.g. a
	// scalar UDF keyed by bounding box): the aggregated predicate was
	// retracted, so subsequent queries recompute and re-store lazily,
	// but no standalone repair query can be synthesized.
	Deferred bool
	// Compacted is true when the log was rewritten into a fresh
	// generation (quarantine cleared).
	Compacted bool
	// CompactBytesBefore/After are the log footprints around that
	// rewrite — before includes quarantined dead ranges, after is the
	// fresh generation (live records only).
	CompactBytesBefore, CompactBytesAfter int64
	// Err is the failure that left the repair pending, if any; the task
	// stays queued and the next Repair retries it.
	Err string
}

// RepairReport is the outcome of one System.Repair call.
type RepairReport struct {
	Records []RepairRecord
}

// repairTask is one pending symbolic repair, registered when a scrub
// pass (or the first use of a view that reopened with holes) finds the
// view's aggregated predicate promising rows it lost.
type repairTask struct {
	sig udf.Signature
	// lost is the DIFF residual: the part of the aggregated predicate
	// the view can no longer back with verified rows.
	lost symbolic.DNF
	// idOnly marks views keyed exactly by frame id, for which lost can
	// be enumerated as id ranges and repaired by synthesized queries.
	idOnly bool
}

// Scrub runs one full verification pass over every materialized view:
// each log is re-read from disk and every record re-hashed — including
// inside the clean sidecar's trusted prefix, whose open-time fast path
// is deliberately blind to bitrot. Corrupt records are quarantined,
// the affected rows dropped from serving, and a symbolic repair task
// registered so Repair (or simply the next query) recomputes exactly
// what was lost. The pass quiesces statement execution: executors hold
// per-batch view snapshots, so state under a running query never
// changes out from under it.
func (s *System) Scrub() (ScrubReport, error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return ScrubReport{}, ErrClosed
	}
	return s.scrubPassLocked(), nil
}

// scrubPassLocked verifies every view and registers repair tasks for
// new quarantines. Callers hold qmu for writing.
func (s *System) scrubPassLocked() ScrubReport {
	results := s.store.VerifyViews()
	rep := ScrubReport{Views: len(results)}
	for _, r := range results {
		if r.Quar != nil {
			rep.Quarantined++
		}
		if r.Err != "" || !r.Clean {
			rep.Findings = append(rep.Findings, r)
		}
		if r.FoundCorruption {
			s.quarantineDetected(r.Name)
		}
	}
	return rep
}

// quarantineDetected tells the UDF manager a view lost rows: its
// aggregated predicate shrinks to what the salvaged rows still prove
// (udf.Manager.Shrink) and the region given up comes back through
// predicateLost to be queued for repair. A signature the manager has
// not seen since this System opened needs nothing here: storage keeps
// the view's durable predicate marked stale, and the manager goes
// through the same shrink when it first loads it.
func (s *System) quarantineDetected(view string) {
	if entry, ok := s.mgr().EntryByView(view); ok {
		s.mgr().Shrink(entry.Sig)
	}
}

// predicateLost is the manager's OnLost hook: the signature's view lost
// rows its aggregated predicate had promised — found by a scrub, or at
// the first load of a predicate persisted beside a log that opened with
// salvaged holes — and lost is that DIFF residual. It queues the repair.
func (s *System) predicateLost(sig udf.Signature, lost symbolic.DNF) {
	kc := sig.KeyColumns()
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	if s.repairs == nil {
		s.repairs = map[string]repairTask{}
	}
	s.repairs[sig.ViewName()] = repairTask{sig: sig, lost: lost, idOnly: len(kc) == 1 && kc[0] == "id"}
}

// lostIDRanges enumerates the finite integer id ranges a lost residual
// covers. Frame ids are 0-based, so a residual unbounded below — the
// shape every `id < N` aggregate leaves after a total loss — is
// enumerable from 0; conjuncts unbounded *above* cannot be enumerated
// and heal lazily through normal queries instead.
func lostIDRanges(lost symbolic.DNF) []storage.IDRange {
	var out []storage.IDRange
	for _, c := range lost.Conjuncts() {
		con, ok := c.Constraint("id")
		if !ok || !con.Numeric {
			continue
		}
		for _, iv := range con.Ivs.Intervals() {
			lo, hi := iv.Lo, iv.Hi
			loOpen := iv.LoOpen
			if math.IsInf(lo, -1) {
				// Clamping to the first frame makes the bound closed:
				// id 0 itself is part of the residual.
				lo, loOpen = 0, false
			}
			if math.IsInf(hi, 0) {
				continue
			}
			l := int64(math.Ceil(lo))
			if loOpen && lo == math.Trunc(lo) {
				l++
			}
			h := int64(math.Floor(hi))
			if iv.HiOpen && hi == math.Trunc(hi) {
				h--
			}
			if l > h {
				continue
			}
			out = append(out, storage.IDRange{Lo: l, Hi: h})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	// Merge overlaps so a residual split across conjuncts repairs once.
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi+1 {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Repair recomputes every quarantined view's lost rows through the
// normal reuse machinery and compacts the healed log into a fresh
// generation. For views keyed by frame id, each lost range becomes a
// synthesized query over exactly that range: the shrunk aggregated
// predicate makes the optimizer's DIFF residual equal the hole, the
// executor re-evaluates the UDF for the missing keys, and the STORE
// path re-appends them. Repair is idempotent — appends are per-key
// idempotent and a failed range leaves its task queued for the next
// call — and crash-safe: compaction's old generation stays
// authoritative until the new one's checksums verify on disk.
func (s *System) Repair() (RepairReport, error) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return RepairReport{}, ErrClosed
	}
	s.repairMu.Lock()
	tasks := make(map[string]repairTask, len(s.repairs))
	for n, t := range s.repairs {
		tasks[n] = t
	}
	s.repairMu.Unlock()
	// Repair every view with a queued task, plus any view carrying a
	// standing quarantine without one (nothing its predicate promised
	// was lost, or it heals lazily through normal queries — but the
	// fragmented log still wants compacting).
	nameSet := map[string]struct{}{}
	for n := range tasks {
		nameSet[n] = struct{}{}
	}
	for _, n := range s.store.Views() {
		if v := s.store.View(n); v != nil && v.Quarantine() != nil {
			nameSet[n] = struct{}{}
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	var rep RepairReport
	for _, name := range names {
		task, hasTask := tasks[name]
		rec := RepairRecord{View: name}
		v := s.store.View(name)
		if v == nil {
			// The view was dropped; nothing left to repair.
			s.clearRepair(name)
			continue
		}
		rec.RowsBefore = v.Rows()
		if hasTask && task.idOnly {
			rec.Err = s.repairRanges(name, task, &rec)
		} else if hasTask {
			rec.Deferred = true
		}
		if rec.Err == "" {
			if cres, err := v.Compact(); err != nil {
				rec.Err = err.Error()
			} else {
				rec.Compacted = true
				rec.CompactBytesBefore = cres.BytesBefore
				rec.CompactBytesAfter = cres.BytesAfter
				s.scrubber.AddFreed(cres.BytesBefore - cres.BytesAfter)
				s.clearRepair(name)
			}
		}
		rec.RowsAfter = v.Rows()
		rep.Records = append(rep.Records, rec)
	}
	return rep, nil
}

// repairRanges recomputes each lost id range with a synthesized query.
// Returns the first failure ("" on success); the task stays queued on
// failure so Repair retries.
func (s *System) repairRanges(view string, task repairTask, rec *RepairRecord) string {
	ranges := lostIDRanges(task.lost)
	rec.Ranges = len(ranges)
	inj := s.root.injector()
	for i, r := range ranges {
		// The repair site models a failure or kill between ranges: a
		// transient leaves the task queued for the next Repair call, so
		// repair converges range by range.
		if err := inj.CheckEval(faults.SiteViewRepair(view), uint64(i), 1); err != nil {
			return fmt.Errorf("eva: repair %s: %w", view, err).Error()
		}
		q := fmt.Sprintf(
			"SELECT COUNT(*) AS n FROM %s CROSS APPLY %s(frame) WHERE id >= %d AND id <= %d",
			task.sig.Table, task.sig.Name, r.Lo, r.Hi)
		stmt, err := parser.Parse(q)
		if err != nil {
			return fmt.Errorf("eva: repair %s: %w", view, err).Error()
		}
		sel, ok := stmt.(*parser.SelectStmt)
		if !ok {
			return fmt.Sprintf("eva: repair %s: synthesized statement is %T", view, stmt)
		}
		// Repair always runs the full reuse pipeline regardless of the
		// system mode: the point is to re-materialize the view, which
		// only EVA-mode planning stores.
		if _, err := s.root.run(sel, optimizer.EVAMode(), false); err != nil {
			return fmt.Errorf("eva: repair %s range [%d,%d]: %w", view, r.Lo, r.Hi, err).Error()
		}
	}
	return ""
}

// clearRepair removes a completed (or moot) repair task.
func (s *System) clearRepair(view string) {
	s.repairMu.Lock()
	delete(s.repairs, view)
	s.repairMu.Unlock()
}

// PendingRepairs returns the names of views with queued repair tasks,
// sorted.
func (s *System) PendingRepairs() []string {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	out := make([]string, 0, len(s.repairs))
	for n := range s.repairs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ViewQuarantine returns the named view's quarantine record, or nil
// when the view does not exist or its log is whole.
func (s *System) ViewQuarantine(view string) *Quarantine {
	v := s.store.View(view)
	if v == nil {
		return nil
	}
	return v.Quarantine()
}

// ScrubberStats snapshots the background scrubber's counters (zero
// when Config.ScrubInterval is 0).
func (s *System) ScrubberStats() ScrubberStats {
	if s.scrubber == nil {
		return ScrubberStats{}
	}
	return s.scrubber.Stats()
}
