package udf

import (
	"strings"
	"sync"
	"time"

	"eva/internal/catalog"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/vision"
	"eva/internal/xxhash"
)

// ScalarFunc is a Go implementation for a scalar UDF registered via
// CREATE UDF (the Go analogue of Listing 2's IMPL path). The apply
// operator's worker pool calls it from several goroutines at once, so
// it must be safe for concurrent use.
type ScalarFunc func(args []types.Datum) (types.Datum, error)

// Stats summarizes a UDF's activity over a workload: the quantities
// behind Table 2 (hit percentage) and Table 3 (#DI, #TI), plus the
// failure-path counters of the resilience machinery. Evaluated counts
// only invocations that eventually succeeded; a retried transient
// blip adds to Failed and Retried without disturbing it.
type Stats struct {
	Distinct  int // #DI: distinct invocations demanded
	Total     int // #TI: total invocations demanded
	Reused    int // invocations satisfied from a view or cache
	Evaluated int // invocations successfully executed
	Failed    int // failed evaluation attempts (transient + permanent)
	Retried   int // retries performed after transient failures
}

// FunCacheHashThroughput is the simulated throughput of the xxHash
// pass over UDF arguments in the FunCache baseline (bytes/second per
// pass; the 128-bit key takes two passes). FunCacheStoreCost is the
// per-miss cost of serializing the result into the in-memory cache.
// Together they model the cumulative caching overhead the paper
// measured in its Python engine — large enough that FunCache is a net
// 0.95× *slowdown* on VBENCH-LOW (§5.2) despite a 24.7% hit rate.
// Both are calibration constants documented in DESIGN.md.
const (
	FunCacheHashThroughput = 1.0e9 // bytes per second, per pass
	FunCacheStoreCost      = 5 * time.Millisecond
)

// Runtime evaluates physical UDFs, charging profiled costs to the
// virtual clock and maintaining demand/reuse counters. With FunCache
// enabled it additionally keys every evaluation by a 128-bit xxHash of
// the raw arguments and serves repeats from an in-memory cache —
// the paper's tuple-level function-caching baseline.
type Runtime struct {
	cat   *catalog.Catalog
	clock *simclock.Clock

	mu       sync.Mutex
	funCache bool                            // guarded by mu
	scalarC  map[xxhash.Key128]types.Datum   // guarded by mu
	tableC   map[xxhash.Key128]*types.Batch  // guarded by mu
	inflight map[xxhash.Key128]chan struct{} // guarded by mu; singleflight per cache key
	impls    map[string]ScalarFunc           // guarded by mu

	counters map[string]*udfCounters // guarded by mu; by lower-case UDF name

	// def is the default evaluation domain: the breaker/injector/clock
	// scope of the system's root session and of the direct
	// Runtime.EvalDetector/EvalScalar entry points. Client sessions
	// create their own domains via NewDomain. Immutable after NewRuntime.
	def *Domain
}

// NewRuntime returns a runtime over the catalog, charging the clock.
func NewRuntime(cat *catalog.Catalog, clock *simclock.Clock) *Runtime {
	r := &Runtime{
		cat:      cat,
		clock:    clock,
		scalarC:  map[xxhash.Key128]types.Datum{},
		tableC:   map[xxhash.Key128]*types.Batch{},
		inflight: map[xxhash.Key128]chan struct{}{},
		impls:    map[string]ScalarFunc{},
		counters: map[string]*udfCounters{},
	}
	r.def = r.NewDomain(clock)
	return r
}

// SetFunCache toggles the FunCache baseline behaviour.
func (r *Runtime) SetFunCache(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funCache = on
}

// RegisterImpl installs a Go implementation for a scalar UDF created
// with CREATE UDF.
func (r *Runtime) RegisterImpl(name string, fn ScalarFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.impls[strings.ToLower(name)] = fn
}

// RecordDemandKey notes that the workload needed a UDF on one raw
// encoded invocation key — whether or not it was ultimately reused;
// lower must already be lower-case.
func (r *Runtime) RecordDemandKey(lower string, key []byte) {
	r.RecordBatch(lower, []uint64{DemandHash(key)}, 0)
}

// DemandHash is the hash under which RecordBatch counts an encoded
// invocation key as distinct.
func DemandHash(key []byte) uint64 { return xxhash.Sum64(key, 0) }

// RecordBatch accounts one probe batch of the apply operator in a
// single critical section: every DemandHash in demanded is one
// demanded invocation of the UDF (lower must already be lower-case),
// and reused invocations were served from a materialized view. The
// counters are sums and a set, so batching them leaves every total
// exactly what per-invocation calls would produce.
// lint:hotpath demand accounting loop must not allocate per key
func (r *Runtime) RecordBatch(lower string, demanded []uint64, reused int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.countersLocked(lower)
	c.demand.touch(demanded)
	for _, h := range demanded {
		c.demand.add(h)
	}
	c.total += len(demanded)
	c.reused += reused
}

// RecordIDs is RecordBatch for a UDF called on a key that is the frame id
// alone: n demanded invocations whose ids are those in ids, and
// reused of them served from a materialized view. Such a key is counted
// by its id, never by its hash, so a caller records every batch of an
// id-keyed call here, served or not: ids and hashes are separate sets,
// and an id in both would count twice.
// lint:hotpath demand accounting loop must not allocate per key
func (r *Runtime) RecordIDs(lower string, ids []types.IDRange, n, reused int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.countersLocked(lower)
	for _, rg := range ids {
		c.ids.Add(rg.Lo, rg.Hi)
	}
	c.total += n
	c.reused += reused
}

// udfCounters is one UDF's demand and evaluation accounting. A UDF
// enters the stats once it has been demanded (distinct non-zero).
type udfCounters struct {
	demand                 demandSet   // distinct invocation-key hashes of composite keys
	ids                    types.IDSet // distinct ids of id-keyed invocations
	total, reused          int
	evals, failed, retried int
}

// distinct returns #DI: the two key sets never share an encoding — an id
// key is one integer, a composite key more — so their sizes add up, and
// against the 64-bit hashes only a collision could make the sum differ
// from a count of distinct keys.
func (c *udfCounters) distinct() int { return c.demand.len() + c.ids.Len() }

// demandSet is a set of demand hashes: an open-addressed table of the
// hashes themselves, probed linearly from their low bits and doubled at
// three quarters full. 0 marks an empty slot, so the hash 0 is kept
// beside the table. Only the hashes are kept — #DI counts keys by their
// DemandHash — never the key bytes.
type demandSet struct {
	slots []uint64 // power-of-two length
	used  int      // non-zero hashes in slots
	zero  bool     // the hash 0 is in the set
	sink  uint64   // keeps touch's loads from being optimised away
}

// touch reads the home slot of every hash first: the loads do not depend
// on one another, so their cache misses overlap, and the adds that follow
// find the slots resident.
func (s *demandSet) touch(hashes []uint64) {
	if len(s.slots) == 0 {
		return
	}
	mask := len(s.slots) - 1
	for _, h := range hashes {
		s.sink |= s.slots[int(h)&mask]
	}
}

// len returns the number of distinct hashes added.
func (s *demandSet) len() int {
	if s.zero {
		return s.used + 1
	}
	return s.used
}

// add adds h to the set.
func (s *demandSet) add(h uint64) {
	if h == 0 {
		s.zero = true
		return
	}
	i := s.find(h)
	if s.slots != nil && s.slots[i] == h {
		return
	}
	if 4*(s.used+1) > 3*len(s.slots) {
		old := s.slots
		s.slots = make([]uint64, max(16, 2*len(old)))
		for _, o := range old {
			if o != 0 {
				s.slots[s.find(o)] = o
			}
		}
		i = s.find(h)
	}
	s.slots[i] = h
	s.used++
}

// find returns the slot holding the non-zero hash h, or the empty slot
// where it would go (0 for an empty table).
func (s *demandSet) find(h uint64) int {
	if len(s.slots) == 0 {
		return 0
	}
	mask := len(s.slots) - 1
	i := int(h) & mask
	for s.slots[i] != h && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// countersLocked returns the UDF's counter record, creating it.
func (r *Runtime) countersLocked(lower string) *udfCounters {
	c := r.counters[lower]
	if c == nil {
		c = &udfCounters{}
		r.counters[lower] = c
	}
	return c
}

// CounterSnapshot returns per-UDF stats.
func (r *Runtime) CounterSnapshot() map[string]Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]Stats{}
	for u, c := range r.counters {
		if c.distinct() > 0 {
			out[u] = Stats{
				Distinct:  c.distinct(),
				Total:     c.total,
				Reused:    c.reused,
				Evaluated: c.evals,
				Failed:    c.failed,
				Retried:   c.retried,
			}
		}
	}
	return out
}

// HitPercentage computes Table 2's metric over all UDFs: reused
// invocations / total invocations × 100.
func (r *Runtime) HitPercentage() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total, reused := 0, 0
	for _, c := range r.counters {
		if c.distinct() > 0 {
			total += c.total
			reused += c.reused
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(reused) / float64(total)
}

// ResetCounters clears demand/reuse accounting (a fresh workload),
// drops the FunCache contents, and closes the default domain's
// circuit breakers.
func (r *Runtime) ResetCounters() {
	r.mu.Lock()
	r.counters = map[string]*udfCounters{}
	r.scalarC = map[xxhash.Key128]types.Datum{}
	r.tableC = map[xxhash.Key128]*types.Batch{}
	r.mu.Unlock()
	r.def.reset()
}

// hashArgs charges the simulated FunCache hashing cost to the
// domain's clock and returns the 128-bit key. The charged bytes are
// the *virtual* argument sizes: a frame argument counts as its
// decoded RGB24 size, because that is what the paper's engine feeds
// xxHash.
func (d *Domain) hashArgs(virtualBytes int, raw []byte) xxhash.Key128 {
	perPass := time.Duration(float64(virtualBytes) / FunCacheHashThroughput * float64(time.Second))
	d.clock.Charge(simclock.CatHash, 2*perPass) // two passes: 128-bit key
	return xxhash.Sum128(raw)
}

func virtualArgBytes(args []types.Datum) int {
	total := 0
	for _, a := range args {
		if a.Kind() == types.KindBytes {
			// Header-only read: the hash-cost model needs the virtual
			// pixel volume, not the decoded object list.
			if n, ok := vision.FrameVirtualBytes(a.Bytes()); ok {
				total += n
				continue
			}
		}
		total += a.EncodedSize()
	}
	return total
}

// rawBufPool recycles the raw-argument serialization buffers of the
// FunCache key path, so a warm cache hit performs no heap allocation.
var rawBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendLowerName appends name lower-cased to buf without allocating.
// UDF names are ASCII identifiers by construction (the parser rejects
// anything else), so byte-wise lowering is exact.
func appendLowerName(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// rawArgsInto serializes the arguments prefixed by the UDF name into
// buf: the paper keeps a separate hash table per UDF, so keys must not
// collide across UDFs that share argument tuples (CarType and ColorDet
// both take (frame, bbox)).
func rawArgsInto(buf []byte, udfName string, args []types.Datum) []byte {
	buf = appendLowerName(buf, udfName)
	buf = append(buf, 0)
	for _, a := range args {
		buf = a.AppendBinary(buf)
	}
	return buf
}

// rawArgs is rawArgsInto with a fresh buffer (EvalIdentity's path).
func rawArgs(udfName string, args []types.Datum) []byte {
	return rawArgsInto(nil, udfName, args)
}

// funCacheKey computes the FunCache key for an invocation, charging the
// simulated hash cost, using a pooled serialization buffer.
func (d *Domain) funCacheKey(udfName string, args []types.Datum) xxhash.Key128 {
	bufp := rawBufPool.Get().(*[]byte)
	raw := rawArgsInto((*bufp)[:0], udfName, args)
	key := d.hashArgs(virtualArgBytes(args), raw)
	*bufp = raw[:0]
	rawBufPool.Put(bufp)
	return key
}

// claimScalar / claimTable implement per-key singleflight for the
// FunCache: they return (cached, true, nil) on a hit, or (zero, false,
// done) after claiming the key for evaluation — the caller must store
// the result in the cache (on success) and then invoke done exactly
// once. Concurrent callers of the same key block until the claimant
// finishes, then re-check the cache, so each distinct key is evaluated
// — and its miss costs charged — at most once per outcome even under
// concurrent eval (a failed claimant releases the key, letting one
// waiter retry). They are concrete (not one generic function taking a
// map accessor closure) for two reasons: the cache maps are replaced
// wholesale by ResetCounters so each loop iteration must re-read the
// live field under mu, and the warm-hit path must not allocate — a
// per-call closure capturing the runtime would.
func claimScalar(r *Runtime, key xxhash.Key128) (types.Datum, bool, func()) {
	for {
		r.mu.Lock()
		if v, ok := r.scalarC[key]; ok {
			r.mu.Unlock()
			return v, true, nil
		}
		if done, claimed := r.claimLocked(key); claimed {
			return types.Null, false, done
		}
	}
}

func claimTable(r *Runtime, key xxhash.Key128) (*types.Batch, bool, func()) {
	for {
		r.mu.Lock()
		if v, ok := r.tableC[key]; ok {
			r.mu.Unlock()
			return v, true, nil
		}
		if done, claimed := r.claimLocked(key); claimed {
			return nil, false, done
		}
	}
}

// claimLocked is the shared miss path of claimScalar/claimTable: called
// with mu held, it either claims the key (returning its release func)
// or blocks on the current claimant and reports false so the caller
// re-checks the cache. It always leaves mu unlocked.
func (r *Runtime) claimLocked(key xxhash.Key128) (func(), bool) {
	if ch, busy := r.inflight[key]; busy {
		r.mu.Unlock()
		<-ch
		return nil, false
	}
	done := make(chan struct{})
	r.inflight[key] = done
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		close(done)
	}, true
}
