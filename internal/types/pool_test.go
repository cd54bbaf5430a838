package types

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

var poolSchema = MustSchema(
	Column{Name: "id", Kind: KindInt},
	Column{Name: "tag", Kind: KindString},
)

// mustPoolPanic runs fn and asserts it panics with a *PoolError whose
// reason contains want.
func mustPoolPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a *PoolError panic containing %q, got none", want)
		}
		pe, ok := r.(*PoolError)
		if !ok {
			t.Fatalf("panic value is %T (%v), want *PoolError", r, r)
		}
		var asErr *PoolError
		if !errors.As(error(pe), &asErr) {
			t.Fatalf("*PoolError does not satisfy errors.As")
		}
		if got := pe.Error(); !contains(got, want) {
			t.Fatalf("panic %q does not mention %q", got, want)
		}
	}()
	fn()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPoolRecyclesCapacity(t *testing.T) {
	p := NewBatchPool()
	b := p.Get(poolSchema)
	for i := 0; i < 100; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("x"))
	}
	p.Put(b)
	got := p.Get(poolSchema)
	if got.Len() != 0 {
		t.Fatalf("recycled batch has %d rows, want 0", got.Len())
	}
	if !got.Pooled() {
		t.Fatal("recycled batch lost its pool ownership")
	}
	// Under -race, sync.Pool drops items adversarially, so identity
	// and hit-count assertions only hold in regular builds.
	if !raceEnabled {
		if got != b {
			t.Fatalf("expected the recycled batch back from the pool")
		}
		st := p.Stats()
		if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
			t.Fatalf("stats = %+v, want hits=1 misses=1 puts=1", st)
		}
	}
}

func TestPoolSharesWidthClasses(t *testing.T) {
	p := NewBatchPool()
	other := MustSchema(
		Column{Name: "a", Kind: KindFloat},
		Column{Name: "b", Kind: KindBool},
	)
	b := p.Get(poolSchema)
	b.MustAppendRow(NewInt(1), NewString("x"))
	p.Put(b)
	// Same width, different schema: the class is shared and the batch
	// is rebound to the new schema.
	got := p.Get(other)
	if !raceEnabled && got != b {
		t.Fatal("equal-width schemas should share a pool class")
	}
	if !got.Schema().Equal(other) {
		t.Fatalf("recycled batch kept schema %s, want %s", got.Schema(), other)
	}
	if err := got.AppendRow(NewFloat(1.5), NewBool(true)); err != nil {
		t.Fatalf("append after rebind: %v", err)
	}
}

func TestPoolDoublePutPanicsTyped(t *testing.T) {
	p := NewBatchPool()
	b := p.Get(poolSchema)
	p.Put(b)
	mustPoolPanic(t, "double Put", func() { p.Put(b) })
}

func TestPoolForeignPutPanicsTyped(t *testing.T) {
	p := NewBatchPool()
	mustPoolPanic(t, "not obtained from a pool", func() { p.Put(NewBatch(poolSchema)) })
	mustPoolPanic(t, "nil batch", func() { p.Put(nil) })

	q := NewBatchPool()
	b := q.Get(poolSchema)
	mustPoolPanic(t, "different pool", func() { p.Put(b) })
}

func TestPoolPoisonCatchesUseAfterPut(t *testing.T) {
	p := NewBatchPool()
	p.SetPoison(true)
	b := p.Get(poolSchema)
	b.MustAppendRow(NewInt(7), NewString("x"))
	stale := b.Col(0) // alias retained across Put — the bug poison exists to catch
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("reading a poisoned datum did not panic")
		}
	}()
	_ = stale[0].Int()
}

func TestPoolPoisonOffKeepsStaleReads(t *testing.T) {
	p := NewBatchPool()
	p.SetPoison(false)
	b := p.Get(poolSchema)
	b.MustAppendRow(NewInt(7), NewString("x"))
	stale := b.Col(0)
	p.Put(b)
	// Release behavior: the stale read is undefined but must not panic.
	if stale[0].Kind() == Kind(0x7F) {
		t.Fatal("poison written with poisoning disabled")
	}
}

// TestPoolRaceStress hammers one pool from 8 goroutines; run under
// -race (make race / make check) it proves Get/Put need no external
// locking and the counters stay consistent.
func TestPoolRaceStress(t *testing.T) {
	p := NewBatchPool()
	p.SetPoison(true)
	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := p.Get(poolSchema)
				n := (g+i)%17 + 1
				for r := 0; r < n; r++ {
					b.MustAppendRow(NewInt(int64(r)), NewString("s"))
				}
				if b.Len() != n {
					errs <- fmt.Errorf("goroutine %d round %d: len %d, want %d", g, i, b.Len(), n)
					return
				}
				for r := 0; r < n; r++ {
					if b.At(r, 0).Int() != int64(r) {
						errs <- fmt.Errorf("goroutine %d round %d: row %d corrupted", g, i, r)
						return
					}
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	gets := st.Hits + st.Misses
	if gets != goroutines*rounds {
		t.Fatalf("gets = %d, want %d", gets, goroutines*rounds)
	}
	if st.Puts != goroutines*rounds {
		t.Fatalf("puts = %d, want %d", st.Puts, goroutines*rounds)
	}
}

// TestPoolSteadyStateZeroAlloc: a warm Get/append/Put cycle must not
// allocate at all — the property the exec pipeline builds on.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	p := NewBatchPool()
	// Warm the class and the column capacity.
	b := p.Get(poolSchema)
	for i := 0; i < 64; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("w"))
	}
	p.Put(b)
	avg := testing.AllocsPerRun(200, func() {
		b := p.Get(poolSchema)
		for i := 0; i < 64; i++ {
			b.MustAppendRow(NewInt(int64(i)), NewString("w"))
		}
		p.Put(b)
	})
	if avg != 0 {
		t.Fatalf("warm Get/append/Put cycle allocates %.2f times, want 0", avg)
	}
}

func TestCompactSel(t *testing.T) {
	b := NewBatch(poolSchema)
	for i := 0; i < 6; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString(fmt.Sprint("x", i)))
	}
	b.CompactSel([]int{0, 1, 2, 3, 4, 5}) // every row: a no-op
	if b.Len() != 6 || b.At(5, 0).Int() != 5 {
		t.Fatalf("full selection changed the batch: %v", b)
	}
	b.CompactSel([]int{0, 2, 5})
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	for i, want := range []int64{0, 2, 5} {
		if got := b.At(i, 0).Int(); got != want || b.At(i, 1).Str() != fmt.Sprint("x", want) {
			t.Fatalf("row %d = %d %s, want %d", i, got, b.At(i, 1), want)
		}
	}
	b.CompactSel(nil)
	if b.Len() != 0 || len(b.Col(1)) != 0 {
		t.Fatalf("empty selection left %d rows", b.Len())
	}
}

func TestTruncate(t *testing.T) {
	b := NewBatch(poolSchema)
	for i := 0; i < 5; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("x"))
	}
	b.Truncate(10) // no-op
	if b.Len() != 5 {
		t.Fatalf("truncate(10) changed len to %d", b.Len())
	}
	b.Truncate(2)
	if b.Len() != 2 || b.At(1, 0).Int() != 1 {
		t.Fatalf("truncate(2) produced len=%d", b.Len())
	}
}

func TestAppendRange(t *testing.T) {
	src := NewBatch(poolSchema)
	for i := 0; i < 8; i++ {
		src.MustAppendRow(NewInt(int64(i)), NewString("s"))
	}
	dst := NewBatch(poolSchema)
	if err := dst.AppendRange(src, 2, 5); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 || dst.At(0, 0).Int() != 2 || dst.At(2, 0).Int() != 4 {
		t.Fatalf("append range copied wrong rows: %s", dst)
	}
	if err := dst.AppendRange(src, 5, 100); err == nil {
		t.Fatal("out-of-range AppendRange did not error")
	}
	other := NewBatch(MustSchema(Column{Name: "z", Kind: KindInt}))
	if err := other.AppendRange(src, 0, 1); err == nil {
		t.Fatal("schema-mismatched AppendRange did not error")
	}
}

func TestProjectInto(t *testing.T) {
	b := NewBatch(poolSchema)
	b.MustAppendRow(NewInt(42), NewString("v"))
	b.MustAppendRow(NewInt(43), NewString("w"))
	var view Batch
	for pass := 0; pass < 2; pass++ { // the holder is reused
		b.ProjectInto(&view, []int{1})
		if view.Len() != 2 || len(view.Schema()) != 1 || view.Schema()[0].Name != poolSchema[1].Name || view.At(1, 0).Str() != "w" {
			t.Fatalf("ProjectInto = %v", &view)
		}
	}
	// The view is a gather's left side: its column, then b's trailing one.
	out := NewBatch(MustSchema(Column{Name: "k", Kind: KindString}, Column{Name: "v", Kind: KindString}))
	if err := out.AppendGather(&view, []int{1, 0}, []*Batch{b, b}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0).Str() != "w" || out.At(0, 1).Str() != "v" || out.At(1, 0).Str() != "v" || out.At(1, 1).Str() != "w" {
		t.Fatalf("gather over a projected view = %v", out)
	}
}
