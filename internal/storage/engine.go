// Package storage implements EVA's pluggable storage engine substrate:
// on-disk columnar segments for video tables and append-able
// materialized views for UDF results. It stands in for the paper's
// Petastorm/Parquet layer; the formats are custom binary encodings
// built on the canonical datum encoding in internal/types.
//
// A materialized view tracks two things per UDF signature: the result
// rows, and the set of *processed keys*. The distinction matters
// because a detector may legitimately produce zero detections for a
// frame — the view must still remember that the frame was evaluated,
// or the conditional Apply operator would re-run the UDF forever.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eva/internal/faults"
	"eva/internal/types"
	"eva/internal/vision"
)

// Engine is the storage root. It owns a directory with one
// sub-directory per video table and one file per materialized view.
type Engine struct {
	root string

	mu     sync.Mutex
	videos map[string]*Video // guarded by mu
	views  map[string]*View  // guarded by mu
	inj    *faults.Injector  // guarded by mu
	budget *DiskBudget       // guarded by mu; nil = unbudgeted
	// opening holds the view logs being opened, by registry key: each
	// open replays its log outside mu, and its channel closes once the
	// view is published or the open failed (openShared). guarded by mu.
	opening map[string]chan struct{}
	// opened counts the view logs opened, each open one replay, and
	// indexed those whose replay went through a key index.
	opened, indexed atomic.Int64
	// ranker scores eviction candidates (nil = LRU); onEvict runs after
	// each whole-view eviction with no storage locks held; retryCharge
	// charges virtual-clock backoff before a disk-full retry. All three
	// are installed by the eva layer. guarded by mu.
	ranker      EvictRanker
	onEvict     func(view string)
	retryCharge func(attempt int)

	// evictMu serializes reclaim ladders so concurrent disk-full
	// appends do not race to evict the same views. It is taken first,
	// never while mu or a view lock is held (DESIGN.md §11 "Lock
	// order").
	evictMu sync.Mutex
	// touchSeq hands out the access ordinals behind eviction recency.
	touchSeq atomic.Uint64
}

// Open creates (or reopens) a storage engine rooted at dir.
func Open(dir string) (*Engine, error) {
	for _, sub := range []string{"videos", "views"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("storage: open %s: %w", dir, err)
		}
	}
	return &Engine{root: dir, videos: map[string]*Video{}, views: map[string]*View{}, opening: map[string]chan struct{}{}}, nil
}

// SetInjector installs the fault injector consulted on every view
// write (nil disables injection). It applies to existing views and to
// views created later.
func (e *Engine) SetInjector(inj *faults.Injector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inj = inj
	for _, v := range e.views {
		v.setInjector(inj)
	}
}

// CreateVideo registers a video table backed by the synthetic dataset.
// Frames are materialized to disk segments lazily on first scan. A
// directory whose table record names another dataset is refused with
// ErrDatasetMismatch; one whose record holds statistics hands them out
// through Stats.
func (e *Engine) CreateVideo(name string, ds vision.Dataset) (*Video, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key, dir, err := e.videoDirLocked(name)
	if err != nil {
		return nil, err
	}
	stats, err := readTable(dir, name, ds)
	if err != nil {
		return nil, err
	}
	v := &Video{name: name, dir: dir, ds: ds, segFrames: defaultSegmentFrames, stats: stats}
	e.videos[key] = v
	return v, nil
}

// videoDirLocked checks that name is free and returns its registry key
// and its directory, created if need be and cleared of the scratch
// files (segment and watermark-log staging) a dead process left
// between write and rename. Callers hold mu.
func (e *Engine) videoDirLocked(name string) (key, dir string, err error) {
	key = strings.ToLower(name)
	if _, dup := e.videos[key]; dup {
		return "", "", fmt.Errorf("storage: video %q already exists", name)
	}
	dir = filepath.Join(e.root, "videos", key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	stale, _ := filepath.Glob(scratchPath(filepath.Join(dir, "*")))
	for _, p := range stale {
		_ = os.Remove(p)
	}
	return key, dir, nil
}

// Video returns the named video table.
func (e *Engine) Video(name string) (*Video, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.videos[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown video %q", name)
	}
	return v, nil
}

// CreateView creates (or returns the existing) materialized view with
// the given row schema and key columns, one of which must be the INTEGER
// column "id": every view is keyed on the frame (viewRows).
func (e *Engine) CreateView(name string, schema types.Schema, keyCols []string) (*View, error) {
	v, err := e.openShared(name, func(path string, inj *faults.Injector, budget *DiskBudget) (*View, error) {
		for _, kc := range keyCols {
			if !schema.Has(kc) {
				return nil, fmt.Errorf("storage: view %q: key column %q not in schema %s", name, kc, schema)
			}
		}
		return openView(path, name, schema, keyCols, inj, budget)
	})
	if err != nil {
		return nil, err
	}
	if !v.schema.Equal(schema) {
		return nil, fmt.Errorf("storage: view %q exists with schema %s (want %s)", name, v.schema, schema)
	}
	e.touchView(v)
	return v, nil
}

// Existing returns the named view if this engine has it open or its log
// is on disk, opening the log as its header describes it; nil otherwise
// (including a log too damaged to open without a creator's schema,
// which CreateView deals with later as it always has). It is the one
// open the UDF manager makes of a signature's view, outside its lock,
// before it reads the persisted aggregated predicate (Opened) under it;
// the replay it pays is the one the first operator's CreateView would
// have paid, and callers that reach one log at once share it
// (openShared). It is not an access for eviction recency, but a view
// opened here starts as recent as the engine's latest access rather than
// as its coldest.
func (e *Engine) Existing(name string) *View {
	v, _ := e.openShared(name, func(path string, inj *faults.Injector, budget *DiskBudget) (*View, error) {
		if _, err := os.Stat(path); err != nil {
			return nil, err
		}
		v, err := openView(path, name, nil, nil, inj, budget)
		if err == nil {
			v.touch.Store(e.touchSeq.Load())
		}
		return v, err
	})
	return v
}

// openShared returns the named view, published already or opened now by
// open: the log's replay runs outside mu, so a statement opening a view
// stops no other from reaching the views that are open. One open of a
// name runs at a time — a caller that finds one in flight waits for it
// and looks again, so two callers share one replay, and a caller whose
// open needs a schema the other lacked (CreateView after an Existing
// that could not read the header) opens the log itself. Close and
// DropViews wait for the opens in flight (settleOpensLocked).
func (e *Engine) openShared(name string, open func(path string, inj *faults.Injector, budget *DiskBudget) (*View, error)) (*View, error) {
	key := strings.ToLower(name)
	e.mu.Lock()
	v, done := e.views[key], e.opening[key]
	for v == nil && done != nil {
		e.mu.Unlock()
		<-done
		e.mu.Lock()
		v, done = e.views[key], e.opening[key]
	}
	if v == nil {
		done = make(chan struct{})
		e.opening[key] = done
	}
	inj, budget := e.inj, e.budget
	e.mu.Unlock()
	if v != nil {
		return v, nil
	}

	v, err := open(e.viewPath(key), inj, budget)

	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.opening, key)
	close(done)
	if err != nil {
		return nil, err
	}
	e.opened.Add(1)
	if v.indexed != 0 { // lint:nolock pre-publish
		e.indexed.Add(1)
	}
	// The injector and the budget may have been replaced while the log
	// replayed; the view takes the engine's current ones, as SetInjector
	// and SetBudget give every published view.
	if e.inj != inj {
		v.inj = e.inj // lint:nolock pre-publish
	}
	if e.budget != budget {
		v.log.setBudget(e.budget) // lint:nolock pre-publish
	}
	v.log.Attach(e, name, e.chargeRetry, nil) // lint:nolock pre-publish
	e.views[key] = v
	return v, nil
}

// settleOpensLocked waits, with mu released, until no view log is being
// opened. Callers hold mu, and hold it again on return.
func (e *Engine) settleOpensLocked() {
	for len(e.opening) > 0 {
		waits := make([]chan struct{}, 0, len(e.opening))
		// lint:unordered every open is waited for; the order is moot
		for _, done := range e.opening {
			waits = append(waits, done)
		}
		e.mu.Unlock()
		for _, done := range waits {
			<-done
		}
		e.mu.Lock()
	}
}

// ViewOpens returns the number of view logs this engine has opened or
// created: one replay of each.
// lint:testonly tests check that concurrent first touches share a replay
func (e *Engine) ViewOpens() int64 { return e.opened.Load() }

// IndexedOpens returns how many of those opens filed the log's rows
// through its key index.
// lint:testonly tests check that a reopen went through the key index
func (e *Engine) IndexedOpens() int64 { return e.indexed.Load() }

func (e *Engine) viewPath(key string) string {
	return filepath.Join(e.root, "views", sanitize(key)+".view")
}

// View returns the named view, or nil if it does not exist. The lookup
// counts as an access for eviction recency.
func (e *Engine) View(name string) *View {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.views[strings.ToLower(name)]
	if v != nil {
		e.touchView(v)
	}
	return v
}

// Opened is View without the recency bump: the named view if this
// engine has it open, nil otherwise. It opens no log, so it is safe
// under locks a replay must not run under, and it is not an access for
// eviction recency — the reclaim ladder inspecting a victim must not
// refresh it, nor must the UDF manager reading a view's predicate.
func (e *Engine) Opened(name string) *View {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.views[strings.ToLower(name)]
}

// Views returns all view names, sorted.
func (e *Engine) Views() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.views))
	for n := range e.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalViewFootprint sums the on-disk bytes of all materialized views —
// the storage-overhead metric of §5.2.
func (e *Engine) TotalViewFootprint() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, v := range e.views {
		total += v.Footprint()
	}
	return total
}

// ViewRowCounts snapshots every view's stored row count under one
// engine lock, so a reader racing concurrent view creation sees a
// consistent name set (each count is still that view's own snapshot).
func (e *Engine) ViewRowCounts() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.views))
	for n, v := range e.views {
		out[n] = v.Rows()
	}
	return out
}

// Close closes every view's backing file, once the opens in flight have
// published theirs, writing the key index of each log a reopen would
// use (View.writeIndexLocked). Idempotent: closing a closed engine (or
// re-closing views) is a no-op.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settleOpensLocked()
	var first error
	for _, v := range e.views {
		if err := v.closeClean(); err != nil && first == nil {
			first = err
		}
	}
	for _, vid := range e.videos {
		if err := vid.closeLive(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropViews removes all materialized views (used to reset between
// benchmark workloads).
func (e *Engine) DropViews() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settleOpensLocked()
	for name, v := range e.views {
		if err := v.close(); err != nil {
			return err
		}
		for _, p := range []string{v.path, compactPath(v.path), indexPath(v.path)} {
			if err := removeFile(e.budget, p); err != nil {
				return err
			}
		}
		delete(e.views, name)
	}
	return nil
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, name)
}
