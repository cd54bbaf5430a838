// Package faults is EVA's deterministic fault-injection framework.
// An Injector is seeded once and thereafter makes every injection
// decision from a pure hash of the *call's identity* — never from wall
// time, and never from a shared PRNG stream — so a (seed, workload)
// pair replays the exact same fault schedule on every machine, at any
// execution concurrency. The resilience machinery it exercises lives
// next to the fault sites: UDF retry and circuit breaking in
// internal/udf, crash-safe view appends in internal/storage, and query
// deadlines in internal/exec.
//
// # Call-identity keying
//
// Early versions drew every probabilistic decision from one seeded
// splitmix64 stream, which made the *consumption order* of draws part
// of the replay contract and forced the parallel executor to pin
// itself serial whenever an injector was attached. Decisions are now a
// pure function
//
//	splitmix64(seed, site, id, occurrence, attempt, rule)
//
// of which call is being made, not of when goroutines happen to make
// it:
//
//   - id is the caller-supplied logical identity of the operation
//     (the executor's per-row invocation index for UDF eval sites, the
//     pre-append log offset — the LSN — for view-write sites, the pull
//     ordinal for the deadline site);
//   - occurrence counts how many times this (site, id) pair has been
//     attempted from scratch, so a replanned query or a rolled-back
//     write retries against a *fresh* draw instead of deterministically
//     re-hitting the same fault forever;
//   - attempt is the 1-based retry attempt within one occurrence
//     (CheckEval sites), letting scripted At rules target "the second
//     attempt of any invocation".
//
// Sites are hierarchical strings ("udf:yolotiny",
// "view:write:udf_x_frame"). Rules attach to an exact site or, with a
// trailing "*", to every site sharing the prefix. A nil *Injector is
// valid everywhere and injects nothing, so production call sites need
// no guards.
//
// One ordering caveat survives: Rule.Limit caps firings in *arrival
// order*, so a Limit on a site checked concurrently caps the same
// number of firings but not necessarily the same set. Scripted
// schedules that need exact replay under concurrency should use At,
// Prob, or serial sites instead.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"eva/internal/costs"
	"eva/internal/simclock"
	"eva/internal/vision"
	"eva/internal/xxhash"
)

// Kind classifies an injected fault by how the victim may react.
//
// lint:exhaustive
type Kind int

// Fault kinds.
const (
	// Transient faults model recoverable blips (model server hiccup,
	// EAGAIN on a write): the victim should retry with backoff.
	Transient Kind = iota
	// Permanent faults model persistent breakage (model crashed, disk
	// full): retrying is futile and the error must surface.
	Permanent
	// Crash faults model a process kill mid-operation. Storage write
	// sites translate them into short (torn) writes; the operation
	// must not apply any in-memory effects.
	Crash
)

// String returns the display name.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is the error injected at a fault site.
type Fault struct {
	Site string // the site that fired
	Kind Kind
	// Call is the 1-based retry attempt for CheckEval sites, and the
	// 1-based arrival ordinal of the call for Check/CheckWrite sites.
	// Both are deterministic under concurrent execution (attempts are
	// per-invocation; Check/CheckWrite sites are consulted serially).
	Call int
	// Short is the number of payload bytes a write-site crash lets
	// through before the simulated kill (meaningful for Crash only).
	Short int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("injected %s fault at %s (call %d)", f.Kind, f.Site, f.Call)
}

// IsTransient reports whether err carries a transient injected fault.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Kind == Transient
}

// IsCrash reports whether err carries a crash injected fault.
func IsCrash(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Kind == Crash
}

// Retry runs try until it succeeds, fails with anything but a transient
// fault, or has run costs.RetryMaxAttempts times, and returns the last
// run's error. Before each rerun it charges the capped exponential
// backoff to clock's retry category — virtual time, so the caller never
// sleeps. try must leave nothing behind when it fails (a rolled-back
// append, a check that only draws). The disk-full ladder is a different
// protocol with its own loop: storage.TailLog.Retry.
func Retry(clock *simclock.Clock, try func() error) error {
	for attempt := 1; ; attempt++ {
		err := try()
		if !IsTransient(err) || attempt >= costs.RetryMaxAttempts {
			return err
		}
		clock.Charge(simclock.CatRetry, costs.RetryBackoff(attempt+1))
	}
}

// AsFault extracts the injected fault from an error chain.
// lint:testonly tests inspect the fault; the engine asks IsTransient/IsCrash
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// Rule configures when a site injects. A rule fires on a call when the
// call's 1-based ordinal — the retry attempt for CheckEval sites, the
// site arrival ordinal for Check/CheckWrite sites — is listed in At,
// or, when At is empty, with probability Prob derived from the
// injector's seed and the call's identity. Limit caps the number of
// times the rule fires (0 = unlimited; capped in arrival order, see
// the package comment).
type Rule struct {
	Kind Kind
	Prob float64
	At   []int
	// Limit caps total injections from this rule; 0 means unlimited.
	Limit int
	// ShortWrite is the number of payload bytes to let through before
	// a Crash fault at a write site; it is clamped to the payload.
	ShortWrite int

	fired int
}

// Event records one injection, for assertions and sweep reports.
// Events are appended in firing order, which is racy for sites checked
// concurrently; compare EventsSorted across runs instead.
type Event struct {
	Site string
	Kind Kind
	Call int
	// ID is the logical identity of the faulted call (invocation index
	// for eval sites, LSN for write sites, pull ordinal for ordinal
	// sites).
	ID uint64
}

// siteRule is one registered rule with its site pattern. Rules are
// kept in registration order: the rule's index is mixed into the
// decision hash, so a deterministic match order is part of the replay
// contract.
type siteRule struct {
	pat string
	r   *Rule
}

// occKey identifies one logical operation at one site for the
// occurrence counters.
type occKey struct {
	site string
	id   uint64
}

// Injector decides fault injection deterministically. The zero value
// and the nil pointer inject nothing.
type Injector struct {
	mu    sync.Mutex
	seed  uint64            // immutable after New
	rules []siteRule        // guarded by mu; registration order
	calls map[string]int    // guarded by mu; per-site arrival ordinals
	occ   map[occKey]uint64 // guarded by mu; per-(site,id) occurrences
	siteH map[string]uint64 // guarded by mu; memoized site hashes
	log   []Event           // guarded by mu
}

// New returns an injector whose probabilistic decisions derive only
// from seed and the identities of the calls made against it.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// Regimes names the canned schedules NewRegime builds, one per way an
// injected fault can end: absorbed by retry, degraded around, crashed
// through, or timed out.
var Regimes = []string{"transient", "permanent", "crash", "deadline"}

// NewRegime returns New(seed) carrying the rules of one of Regimes:
//   - transient: 8 % of UDF evaluations and 5 % of view writes fail and
//     retry;
//   - permanent: every YoloTiny evaluation fails for good, so a logical
//     detector degrades to another model;
//   - crash: 20 % of view writes crash, torn at a seed-derived length;
//   - deadline: the tenth deadline check expires.
//
// A name outside Regimes panics: a typo must not become a schedule that
// injects nothing.
func NewRegime(regime string, seed uint64) *Injector {
	inj := New(seed)
	switch regime {
	case "transient":
		inj.Rule(SiteUDFAny, Rule{Kind: Transient, Prob: 0.08})
		inj.Rule(SiteViewWriteAny, Rule{Kind: Transient, Prob: 0.05})
	case "permanent":
		inj.Rule(SiteUDF(vision.YoloTiny), Rule{Kind: Permanent, Prob: 1})
	case "crash":
		inj.Rule(SiteViewWriteAny, Rule{Kind: Crash, Prob: 0.2, ShortWrite: int(seed * 13 % 97)})
	case "deadline":
		inj.Rule(SiteDeadline, Rule{Kind: Permanent, At: []int{10}})
	default:
		panic(fmt.Sprintf("faults: unknown regime %q (want one of %v)", regime, Regimes))
	}
	return inj
}

// Rule attaches a rule to a site. A site ending in "*" matches every
// site that starts with the prefix before the star.
func (i *Injector) Rule(site string, r Rule) {
	i.mu.Lock()
	defer i.mu.Unlock()
	rc := r
	i.rules = append(i.rules, siteRule{pat: site, r: &rc})
}

// splitmix64 is the finalizer of Steele et al. 2014 — a full-avalanche
// bijection on uint64, chained below to fold the decision coordinates
// into one uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawLocked returns the uniform [0,1) decision value for one
// (site, id, occurrence, attempt, rule) coordinate. Callers hold mu.
func (i *Injector) drawLocked(site string, id, occurrence uint64, attempt, ruleIdx int) float64 {
	h := splitmix64(i.seed ^ i.siteHashLocked(site))
	h = splitmix64(h ^ id)
	h = splitmix64(h ^ occurrence)
	h = splitmix64(h ^ uint64(attempt))
	h = splitmix64(h ^ uint64(ruleIdx))
	return float64(h>>11) / float64(1<<53)
}

func (i *Injector) siteHashLocked(site string) uint64 {
	if h, ok := i.siteH[site]; ok {
		return h
	}
	if i.siteH == nil {
		i.siteH = map[string]uint64{}
	}
	h := xxhash.Sum64([]byte(site), 0)
	i.siteH[site] = h
	return h
}

// matches reports whether the pattern covers the site (exact, or
// prefix when the pattern ends in "*").
func matches(pat, site string) bool {
	if n := len(pat); n > 0 && pat[n-1] == '*' {
		return strings.HasPrefix(site, pat[:n-1])
	}
	return pat == site
}

// Check consults the site's rules for an *ordinal-keyed* site: every
// call advances the site's 1-based arrival ordinal (whether or not a
// rule fires), At matches the ordinal, and probabilistic decisions are
// keyed by it. Use it only for sites that are consulted serially (the
// executor's deadline guard); concurrent sites need CheckEval's
// caller-supplied identity.
func (i *Injector) Check(site string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	call := i.arriveLocked(site)
	f := i.decideLocked(site, uint64(call), 0, call, call)
	if f == nil {
		return nil
	}
	return f
}

// CheckEval consults the site's rules for one retry attempt of one
// logical invocation. id is the caller-assigned identity of the
// invocation; attempt is 1-based within it. At rules match the attempt
// number. Each fresh start of an invocation (attempt 1) opens a new
// occurrence of (site, id), so a replanned query redraws its schedule
// instead of deterministically re-failing.
func (i *Injector) CheckEval(site string, id uint64, attempt int) error {
	if i == nil {
		return nil
	}
	if attempt < 1 {
		attempt = 1
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arriveLocked(site)
	k := occKey{site: site, id: id}
	if i.occ == nil {
		i.occ = map[occKey]uint64{}
	}
	if attempt == 1 {
		i.occ[k]++
	}
	occurrence := i.occ[k]
	if occurrence == 0 { // attempt > 1 without an opener; tolerate
		occurrence = 1
		i.occ[k] = 1
	}
	f := i.decideLocked(site, id, occurrence, attempt, attempt)
	if f == nil {
		return nil
	}
	return f
}

// CheckWrite is the write-site check, carrying an n-byte payload at
// log position lsn. At rules match the site's arrival ordinal (write
// sites are consulted serially, so scripted kill points stay stable);
// probabilistic decisions are keyed by the LSN plus a per-(site, LSN)
// occurrence, so a rolled-back append that retries at the same log
// position draws afresh. For Crash faults it returns the number of
// payload bytes the torn write lets through (rule.ShortWrite clamped
// to n; a scripted value past the payload end degrades to a full write
// followed by the kill).
func (i *Injector) CheckWrite(site string, lsn uint64, n int) (short int, err error) {
	if i == nil {
		return n, nil
	}
	i.mu.Lock()
	call := i.arriveLocked(site)
	k := occKey{site: site, id: lsn}
	if i.occ == nil {
		i.occ = map[occKey]uint64{}
	}
	i.occ[k]++
	f := i.decideLocked(site, lsn, i.occ[k], call, call)
	i.mu.Unlock()
	if f == nil {
		return n, nil
	}
	if f.Kind == Crash {
		s := f.Short
		if s > n {
			s = n
		}
		if s < 0 {
			s = 0
		}
		f.Short = s
		return s, f
	}
	return 0, f
}

// arriveLocked advances and returns the site's 1-based arrival
// ordinal. Callers hold mu.
func (i *Injector) arriveLocked(site string) int {
	if i.calls == nil {
		i.calls = map[string]int{}
	}
	i.calls[site]++
	return i.calls[site]
}

// decideLocked runs the rule machinery for one call at a site. at is
// the ordinal matched against At rules and recorded as the fault's
// Call; (id, occurrence, attempt) key the probabilistic draw. Callers
// hold mu.
func (i *Injector) decideLocked(site string, id, occurrence uint64, attempt, at int) *Fault {
	if len(i.rules) == 0 {
		return nil
	}
	for ri, sr := range i.rules {
		if !matches(sr.pat, site) {
			continue
		}
		r := sr.r
		if r.Limit > 0 && r.fired >= r.Limit {
			continue
		}
		hit := false
		if len(r.At) > 0 {
			for _, want := range r.At {
				if want == at {
					hit = true
					break
				}
			}
		} else if r.Prob > 0 {
			hit = i.drawLocked(site, id, occurrence, attempt, ri) < r.Prob
		}
		if !hit {
			continue
		}
		r.fired++
		i.log = append(i.log, Event{Site: site, Kind: r.Kind, Call: at, ID: id})
		return &Fault{Site: site, Kind: r.Kind, Call: at, Short: r.ShortWrite}
	}
	return nil
}

// Events returns a copy of the injection log in firing order. Firing
// order is racy for sites checked concurrently; use EventsSorted when
// comparing schedules across runs.
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.log...)
}

// EventsSorted returns the injection log in canonical order — sorted
// by site, identity, call and kind — which is identical across runs of
// the same (seed, workload) at any concurrency, even though arrival
// order is not. Differential harnesses compare this form.
func (i *Injector) EventsSorted() []Event {
	evs := i.Events()
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].Site != evs[b].Site {
			return evs[a].Site < evs[b].Site
		}
		if evs[a].ID != evs[b].ID {
			return evs[a].ID < evs[b].ID
		}
		if evs[a].Call != evs[b].Call {
			return evs[a].Call < evs[b].Call
		}
		return evs[a].Kind < evs[b].Kind
	})
	return evs
}

// Injected returns the total number of injections so far.
func (i *Injector) Injected() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.log)
}

// Site name constants and constructors shared by the engine's fault
// sites, so tests and production code cannot drift apart on spelling.
// The evalint faultsite analyzer statically resolves every site
// literal reaching Rule/Check/CheckEval/CheckWrite against this
// registry: Site*Prefix constants open a site family, the remaining
// Site* constants are exact sites or wildcard patterns, and a literal
// outside the registry is a typo that would silently never inject.
const (
	// SiteUDFPrefix opens the evaluation-site family of physical
	// models ("udf:<model>").
	SiteUDFPrefix = "udf:"
	// SiteViewWritePrefix opens the log-append-site family of
	// materialized views ("view:write:<view>").
	SiteViewWritePrefix = "view:write:"
	// SiteDeadline is the query-deadline site checked by the executor.
	SiteDeadline = "exec:deadline"
	// SiteIngestAppendPrefix opens the live-append-site family of
	// streaming video tables ("ingest:append:<table>"): the durable
	// watermark-log write that makes ingested frames visible.
	SiteIngestAppendPrefix = "ingest:append:"
	// SiteIngestCheckpointPrefix opens the checkpoint-write-site family
	// of standing queries ("ingest:checkpoint:<query>"): the durable
	// record of the last LSN a standing query has fully processed.
	SiteIngestCheckpointPrefix = "ingest:checkpoint:"
	// SiteIngestNotifyPrefix opens the alert-delivery-site family of
	// standing queries ("ingest:notify:<query>"): the (simulated)
	// downstream notification of a completed alert window.
	SiteIngestNotifyPrefix = "ingest:notify:"
	// SiteViewScrubPrefix opens the scrub-pass-site family of
	// materialized views ("view:scrub:<view>"): a scrub pass's full
	// checksum re-verification of a view log.
	SiteViewScrubPrefix = "view:scrub:"
	// SiteViewRepairPrefix opens the repair-site family of materialized
	// views ("view:repair:<view>"): the symbolic recomputation of a
	// quarantined key range through the reuse machinery.
	SiteViewRepairPrefix = "view:repair:"
	// SiteViewCompactPrefix opens the compaction-site family of
	// materialized views ("view:compact:<view>"): the generational
	// rewrite of a fragmented or repaired view log.
	SiteViewCompactPrefix = "view:compact:"
	// SiteViewEvictPrefix opens the eviction-site family of
	// materialized views ("view:evict:<view>"): the kill-points on
	// either side of the rename that replaces a cold view's log with an
	// empty one. A Crash rule here simulates dying mid-eviction.
	SiteViewEvictPrefix = "view:evict:"
	// SiteDiskFullPrefix opens the out-of-space family
	// ("disk:full:<write-site>"): every durable write site has a
	// shadow member here, so a rule can make a specific log's append,
	// compaction or checkpoint write fail with ENOSPC without also
	// corrupting it the way the underlying write-site family does.
	SiteDiskFullPrefix = "disk:full:"
)

// Wildcard rule patterns matching whole site families.
// lint:testonly fault schedules name whole families; most are named only by tests
const (
	// SiteAny is the wildcard rule pattern matching every site.
	SiteAny = "*"
	// SiteUDFAny is the rule pattern matching every model site.
	SiteUDFAny = SiteUDFPrefix + "*"
	// SiteViewWriteAny is the rule pattern matching every view-write
	// site.
	SiteViewWriteAny = SiteViewWritePrefix + "*"
	// SiteIngestAny is the rule pattern matching every ingest-path site
	// (append, checkpoint and notify families share the "ingest:" stem).
	SiteIngestAny = "ingest:*"
	// SiteIngestAppendAny matches every live-append site.
	SiteIngestAppendAny = SiteIngestAppendPrefix + "*"
	// SiteIngestCheckpointAny matches every checkpoint-write site.
	SiteIngestCheckpointAny = SiteIngestCheckpointPrefix + "*"
	// SiteIngestNotifyAny matches every alert-delivery site.
	SiteIngestNotifyAny = SiteIngestNotifyPrefix + "*"
	// SiteViewScrubAny matches every scrub-pass site.
	SiteViewScrubAny = SiteViewScrubPrefix + "*"
	// SiteViewRepairAny matches every view-repair site.
	SiteViewRepairAny = SiteViewRepairPrefix + "*"
	// SiteViewCompactAny matches every view-compaction site.
	SiteViewCompactAny = SiteViewCompactPrefix + "*"
	// SiteViewEvictAny matches every view-eviction site.
	SiteViewEvictAny = SiteViewEvictPrefix + "*"
	// SiteDiskFullAny matches every shadow out-of-space site.
	SiteDiskFullAny = SiteDiskFullPrefix + "*"
)

// Sites is the central registry of fault-site families. Exact lists
// standalone sites; Prefixes lists the open families whose members are
// built by the Site* constructors below.
// lint:testonly the faultsite analyzer reads the registry from source; RegisteredSite checks it at run time
var Sites = struct {
	Exact    []string
	Prefixes []string
}{
	Exact: []string{SiteDeadline},
	Prefixes: []string{
		SiteUDFPrefix, SiteViewWritePrefix,
		SiteViewScrubPrefix, SiteViewRepairPrefix, SiteViewCompactPrefix,
		SiteViewEvictPrefix, SiteDiskFullPrefix,
		SiteIngestAppendPrefix, SiteIngestCheckpointPrefix, SiteIngestNotifyPrefix,
	},
}

// RegisteredSite reports whether a concrete site name or wildcard rule
// pattern resolves to the registry: an exact site, a member of a
// prefix family, or a "*"-pattern that can match at least one
// registered site. This is the runtime twin of the evalint faultsite
// analyzer's static check.
// lint:testonly pinned against the constructors by TestRegisteredSite
func RegisteredSite(pat string) bool {
	if pat == SiteAny {
		return true
	}
	if stem, ok := strings.CutSuffix(pat, "*"); ok {
		for _, p := range Sites.Prefixes {
			if strings.HasPrefix(p, stem) || strings.HasPrefix(stem, p) {
				return true
			}
		}
		for _, e := range Sites.Exact {
			if strings.HasPrefix(e, stem) {
				return true
			}
		}
		return false
	}
	for _, e := range Sites.Exact {
		if pat == e {
			return true
		}
	}
	for _, p := range Sites.Prefixes {
		if strings.HasPrefix(pat, p) && len(pat) > len(p) {
			return true
		}
	}
	return false
}

// SiteUDF is the evaluation site of a physical model.
func SiteUDF(model string) string { return SiteUDFPrefix + strings.ToLower(model) }

// SiteViewWrite is the log-append site of a materialized view.
func SiteViewWrite(view string) string { return SiteViewWritePrefix + strings.ToLower(view) }

// SiteViewScrub is the scrub-pass site of a materialized view.
func SiteViewScrub(view string) string { return SiteViewScrubPrefix + strings.ToLower(view) }

// SiteViewRepair is the quarantine-repair site of a materialized view.
func SiteViewRepair(view string) string { return SiteViewRepairPrefix + strings.ToLower(view) }

// SiteViewCompact is the generational-compaction site of a
// materialized view.
func SiteViewCompact(view string) string { return SiteViewCompactPrefix + strings.ToLower(view) }

// SiteViewEvict is the whole-view eviction site of a materialized
// view.
func SiteViewEvict(view string) string { return SiteViewEvictPrefix + strings.ToLower(view) }

// SiteDiskFull is the shadow out-of-space site of a durable write
// site: the member name embeds the underlying site, so one rule can
// starve a single log ("disk:full:view:write:v_car") or the whole
// disk ("disk:full:*").
func SiteDiskFull(site string) string { return SiteDiskFullPrefix + site }

// SiteIngestAppend is the durable live-append site of a streaming
// video table.
func SiteIngestAppend(table string) string { return SiteIngestAppendPrefix + strings.ToLower(table) }

// SiteIngestCheckpoint is the checkpoint-write site of a standing
// query.
func SiteIngestCheckpoint(query string) string {
	return SiteIngestCheckpointPrefix + strings.ToLower(query)
}

// SiteIngestNotify is the alert-delivery site of a standing query.
func SiteIngestNotify(query string) string { return SiteIngestNotifyPrefix + strings.ToLower(query) }
