package udf

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/vision"
)

// Concurrency stress suite for the Runtime (run under -race by `make
// check`): the parallel executor calls EvalScalar/EvalDetector,
// RecordDemand and RecordReuse from many goroutines at once, so every
// counter must stay exact and the FunCache singleflight must evaluate
// each distinct key exactly once no matter how calls interleave.

// registerCounting installs an Expensive scalar UDF whose Go impl
// counts its invocations atomically.
func registerCounting(t *testing.T, r *Runtime, cat *catalog.Catalog, invocations *atomic.Int64) {
	t.Helper()
	err := cat.RegisterUDF(&catalog.UDF{
		Name: "CountEcho", Kind: catalog.KindScalarUDF, LogicalType: "CountEcho",
		Accuracy: vision.AccuracyHigh, Cost: time.Millisecond,
		Inputs:  []string{"x"},
		Outputs: types.MustSchema(types.Column{Name: "v", Kind: types.KindInt}),
		Impl:    "go", Expensive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterImpl("CountEcho", func(args []types.Datum) (types.Datum, error) {
		invocations.Add(1)
		return args[0], nil
	})
}

// TestFunCacheConcurrentSingleflight hammers one Expensive scalar UDF
// with 8 goroutines over 16 distinct keys. The singleflight inflight
// map must collapse every concurrent miss for the same key into one
// evaluation, making Evaluated/Reused — and hence HitPercentage —
// deterministic: exactly `keys` evaluations, everything else a reuse.
func TestFunCacheConcurrentSingleflight(t *testing.T) {
	cat := catalog.New()
	rt := NewRuntime(cat, &simclock.Clock{})
	rt.SetFunCache(true)
	var invocations atomic.Int64
	registerCounting(t, rt, cat, &invocations)

	const (
		workers = 8
		rounds  = 25
		keys    = 16
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for k := 0; k < keys; k++ {
					// Rotate the key order per worker so misses collide.
					key := (k + w) % keys
					rt.RecordDemand("CountEcho", fmt.Sprintf("k%d", key))
					v, err := rt.EvalScalar("CountEcho", []types.Datum{types.NewInt(int64(key))})
					if err != nil {
						errs[w] = err
						return
					}
					if v.Int() != int64(key) {
						errs[w] = fmt.Errorf("key %d returned %v", key, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := invocations.Load(); got != keys {
		t.Errorf("impl invoked %d times, want exactly %d (singleflight)", got, keys)
	}
	stats := rt.CounterSnapshot()["countecho"]
	total := workers * rounds * keys
	if stats.Total != total || stats.Distinct != keys {
		t.Errorf("demand = %+v, want Total %d Distinct %d", stats, total, keys)
	}
	if stats.Evaluated != keys {
		t.Errorf("Evaluated = %d, want %d", stats.Evaluated, keys)
	}
	if stats.Reused != total-keys {
		t.Errorf("Reused = %d, want %d", stats.Reused, total-keys)
	}
	want := 100 * float64(total-keys) / float64(total)
	if got := rt.HitPercentage(); got != want {
		t.Errorf("hit%% = %v, want %v", got, want)
	}
}

// TestFunCacheConcurrentDetector does the same for table UDFs: the
// detector cache shares the singleflight, so each distinct frame is
// detected once and all goroutines read the identical cached batch.
func TestFunCacheConcurrentDetector(t *testing.T) {
	rt := NewRuntime(catalog.New(), &simclock.Clock{})
	rt.SetFunCache(true)

	const (
		workers = 8
		rounds  = 6
		frames  = 8
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for f := 0; f < frames; f++ {
					id := int64((f + w) % frames)
					rt.RecordDemand(vision.FasterRCNN50, fmt.Sprintf("f%d", id))
					payload := vision.MediumUADetrac.EncodeFrame(id)
					out, err := rt.EvalDetector(vision.FasterRCNN50, payload)
					if err != nil {
						errs[w] = err
						return
					}
					if out == nil {
						errs[w] = fmt.Errorf("frame %d: nil batch", id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := rt.CounterSnapshot()[strings.ToLower(vision.FasterRCNN50)]
	if stats.Evaluated != frames {
		t.Errorf("Evaluated = %d, want %d (one per distinct frame)", stats.Evaluated, frames)
	}
	total := workers * rounds * frames
	if stats.Reused != total-frames {
		t.Errorf("Reused = %d, want %d", stats.Reused, total-frames)
	}
}

// TestBreakerConcurrentTrip drives a permanently failing model from 8
// goroutines: the breaker must trip without races, every error must be
// clean, and once open the model reports unhealthy to the optimizer.
func TestBreakerConcurrentTrip(t *testing.T) {
	rt := NewRuntime(catalog.New(), &simclock.Clock{})
	inj := faults.New(7)
	inj.Rule(faults.SiteUDF(vision.YoloTiny), faults.Rule{Kind: faults.Permanent, Prob: 1})
	rt.SetInjector(inj)

	const workers = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	payload := vision.MediumUADetrac.EncodeFrame(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := rt.EvalDetector(vision.YoloTiny, payload); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := failures.Load(); got != workers*10 {
		t.Errorf("failures = %d, want %d (permanent fault)", got, workers*10)
	}
	if rt.DefaultDomain().ModelHealthy(vision.YoloTiny) {
		t.Error("breaker still closed after concurrent permanent failures")
	}
}

// TestCountersConcurrentMixed interleaves demand, reuse, snapshot and
// rate queries — the full counter API the engine and experiments use —
// purely to give the race detector surface area.
func TestCountersConcurrentMixed(t *testing.T) {
	rt := NewRuntime(catalog.New(), &simclock.Clock{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (w + i) % 4 {
				case 0:
					rt.RecordDemand("cartype", fmt.Sprintf("k%d", i%10))
				case 1:
					rt.RecordReuse("cartype")
				case 2:
					_ = rt.CounterSnapshot()
				default:
					_ = rt.HitPercentage()
				}
			}
		}(w)
	}
	wg.Wait()
}
