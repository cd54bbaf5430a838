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
	// ranker scores eviction candidates (nil = LRU); onEvict runs after
	// each whole-view eviction with no storage locks held; retryCharge
	// charges virtual-clock backoff before a disk-full retry. All three
	// are installed by the eva layer. guarded by mu.
	ranker      EvictRanker
	onEvict     func(view string)
	retryCharge func(attempt int)

	// evictMu serializes reclaim ladders so concurrent disk-full
	// appends do not race to evict the same views. Never held together
	// with mu or any view lock.
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
	return &Engine{root: dir, videos: map[string]*Video{}, views: map[string]*View{}}, nil
}

// Root returns the engine's directory.
func (e *Engine) Root() string { return e.root }

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
// Frames are materialized to disk segments lazily on first scan.
func (e *Engine) CreateVideo(name string, ds vision.Dataset) (*Video, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key, dir, err := e.videoDirLocked(name)
	if err != nil {
		return nil, err
	}
	v := &Video{name: name, dir: dir, ds: ds, segFrames: defaultSegmentFrames}
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
// the given row schema and key columns.
func (e *Engine) CreateView(name string, schema types.Schema, keyCols []string) (*View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if v, ok := e.views[key]; ok {
		if !v.schema.Equal(schema) {
			return nil, fmt.Errorf("storage: view %q exists with schema %s (want %s)", name, v.schema, schema)
		}
		e.touchView(v)
		return v, nil
	}
	for _, kc := range keyCols {
		if !schema.Has(kc) {
			return nil, fmt.Errorf("storage: view %q: key column %q not in schema %s", name, kc, schema)
		}
	}
	v, err := openView(e.viewPath(key), name, schema, keyCols, e.inj, e.budget)
	if err != nil {
		return nil, err
	}
	v.log.Attach(e, name, e.chargeRetry, nil) // lint:nolock pre-publish
	e.touchView(v)
	e.views[key] = v
	return v, nil
}

// Existing returns the named view if this engine has it open or its log
// is on disk, opening the log as its header describes it; nil otherwise
// (including a log too damaged to open without a creator's schema,
// which CreateView deals with later as it always has). It is how the UDF
// manager reaches a signature's persisted aggregated predicate before
// any operator has asked for the view; the replay it pays is the one
// that operator's CreateView would have paid. It is not an access for
// eviction recency, but a view opened here starts as recent as the
// engine's latest access rather than as its coldest.
func (e *Engine) Existing(name string) *View {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if v, ok := e.views[key]; ok {
		return v
	}
	path := e.viewPath(key)
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	if _, err := os.Stat(tombPath(path)); err == nil {
		return nil // a committed eviction: the leftovers are CreateView's to clear
	}
	v, err := openView(path, name, nil, nil, e.inj, e.budget)
	if err != nil {
		return nil
	}
	v.log.Attach(e, name, e.chargeRetry, nil) // lint:nolock pre-publish
	v.touch.Store(e.touchSeq.Load())
	e.views[key] = v
	return v
}

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

// viewNoTouch is View without the recency bump, for the reclaim ladder
// (the evictor inspecting a victim must not refresh it).
func (e *Engine) viewNoTouch(name string) *View {
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

// Close closes every view's backing file. Idempotent: closing a
// closed engine (or re-closing views) is a no-op.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, v := range e.views {
		if err := v.close(); err != nil && first == nil {
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
	for name, v := range e.views {
		if err := v.close(); err != nil {
			return err
		}
		for _, p := range append(viewSidecars(v.path), v.path, tombPath(v.path)) {
			if err := removeSidecar(e.budget, p); err != nil {
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
