package udf

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eva/internal/catalog"
	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/vision"
)

// batchRegimes are the root chaos harness's four fault regimes as they
// reach the UDF layer (crash and deadline target sites no UDF evaluation
// consults: they must change nothing), plus one flaky enough to exhaust
// retry budgets and trip breakers through failed invocations.
var batchRegimes = map[string]func(*faults.Injector){
	"transient": func(inj *faults.Injector) {
		inj.Rule(faults.SiteUDFAny, faults.Rule{Kind: faults.Transient, Prob: 0.08})
	},
	"permanent": func(inj *faults.Injector) {
		inj.Rule(faults.SiteUDF(vision.YoloTiny), faults.Rule{Kind: faults.Permanent, Prob: 1})
	},
	"crash": func(inj *faults.Injector) {
		inj.Rule(faults.SiteViewWriteAny, faults.Rule{Kind: faults.Crash, Prob: 0.2, ShortWrite: 13})
	},
	"deadline": func(inj *faults.Injector) {
		inj.Rule(faults.SiteDeadline, faults.Rule{Kind: faults.Permanent, At: []int{10}})
	},
	"flaky": func(inj *faults.Injector) {
		inj.Rule(faults.SiteUDFAny, faults.Rule{Kind: faults.Transient, Prob: 0.55})
		inj.Rule(faults.SiteUDF(vision.CarTypeModel), faults.Rule{Kind: faults.Permanent, Prob: 0.1})
	},
}

// batchWorkload is the invocations both sides of the differential make:
// a detector over some frames, then a classifier over boxes of theirs
// (each box twice, so a FunCache has something to serve).
type batchWorkload struct {
	frames [][]types.Datum // detector arguments
	boxes  [][]types.Datum // classifier arguments
}

func newBatchWorkload(t *testing.T) batchWorkload {
	t.Helper()
	var w batchWorkload
	for f := int64(0); f < 30; f++ {
		payload := vision.MediumUADetrac.EncodeFrame(f)
		w.frames = append(w.frames, []types.Datum{types.NewBytes(payload)})
		dets, err := vision.Detect(vision.FasterRCNN50, payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dets {
			if i < 3 {
				args := []types.Datum{types.NewBytes(payload), types.NewString(d.BBox())}
				w.boxes = append(w.boxes, args, args)
			}
		}
	}
	// A bad bbox: a permanent failure of the model itself, mid-batch.
	w.boxes[7] = []types.Datum{w.boxes[7][0], types.NewString("not,a,box")}
	return w
}

// evalTrace is everything a run of the workload leaves observable.
type evalTrace struct {
	Outputs  []string // per invocation: its rows or value, or its error text
	Counters map[string]Stats
	Clock    simclock.Snapshot
	Breakers map[string]breaker
	Rates    map[string]float64
	Events   []faults.Event
}

// runBatchWorkload evaluates the workload in chunks of the given size —
// through the batch calls, or as that many one-call evaluations — and
// returns its trace. executor selects the apply operator's protocol (a
// breaker snapshot per chunk, outcomes sunk and committed after it) over
// the direct callers' (live breaker, immediate commit).
func runBatchWorkload(t *testing.T, w batchWorkload, regime string, seed uint64, funCache, executor, batched bool, chunk int) evalTrace {
	t.Helper()
	clock := &simclock.Clock{}
	r := NewRuntime(catalog.New(), clock)
	r.SetFunCache(funCache)
	d := r.NewDomain(clock)
	inj := faults.New(seed)
	batchRegimes[regime](inj)
	d.SetInjector(inj)

	var tr evalTrace
	render := func(rows *types.Batch, start, n int) string {
		var sb strings.Builder
		for i := start; i < start+n; i++ {
			fmt.Fprintln(&sb, rows.Row(i))
		}
		return sb.String()
	}
	var dec vision.Decoder
	var sink OutcomeSink
	id := uint64(0)
	run := func(name string, table bool, args [][]types.Datum) {
		for lo := 0; lo < len(args); lo += chunk {
			part := args[lo:min(lo+chunk, len(args))]
			var hs *HealthSnapshot
			var sk *OutcomeSink
			if executor {
				hs, sk = d.HealthSnapshot(), &sink
			}
			switch {
			case batched:
				calls := make([]Call, len(part))
				for i := range part {
					calls[i] = Call{Args: part[i], ID: id}
					id++
				}
				vals := make([]types.Datum, len(part))
				out := types.NewBatch(catalog.DetectorSchema)
				if table {
					d.EvalTableBatch(name, calls, hs, sk, &dec, out)
				} else {
					d.EvalScalarBatch(name, calls, vals, hs, sk, &dec)
				}
				for i, c := range calls {
					switch {
					case c.Err != nil:
						tr.Outputs = append(tr.Outputs, c.Err.Error())
					case table:
						tr.Outputs = append(tr.Outputs, render(c.Rows, c.Start, c.N))
					default:
						tr.Outputs = append(tr.Outputs, vals[i].String())
					}
				}
			case table:
				for _, a := range part {
					rows, err := d.EvalDetectorAt(name, a[0].Bytes(), id, hs, sk)
					id++
					if err != nil {
						tr.Outputs = append(tr.Outputs, err.Error())
					} else {
						tr.Outputs = append(tr.Outputs, render(rows, 0, rows.Len()))
					}
				}
			default:
				for _, a := range part {
					v, err := d.EvalScalarAt(name, a, id, hs, sk)
					id++
					if err != nil {
						tr.Outputs = append(tr.Outputs, err.Error())
					} else {
						tr.Outputs = append(tr.Outputs, v.String())
					}
				}
			}
			d.CommitOutcomes(sk)
		}
	}
	run(vision.YoloTiny, true, w.frames)
	run(vision.FasterRCNN50, true, w.frames)
	run(vision.CarTypeModel, false, w.boxes)
	run("nosuchudf", false, w.boxes[:2])
	run(vision.CarTypeModel, true, w.frames[:2]) // a scalar UDF asked for rows

	tr.Counters = r.CounterSnapshot()
	for _, u := range []string{vision.YoloTiny, vision.FasterRCNN50, vision.CarTypeModel} {
		key := strings.ToLower(u)
		// The detectors are never "demanded" here, so CounterSnapshot,
		// which lists demanded UDFs, would leave them out.
		r.mu.Lock()
		tr.Counters["raw:"+key] = Stats{Evaluated: r.evals[key], Failed: r.failed[key], Retried: r.retried[key], Reused: r.reused[key]}
		r.mu.Unlock()
	}
	tr.Clock = clock.Snapshot()
	tr.Breakers, tr.Rates = map[string]breaker{}, map[string]float64{}
	for key, b := range d.breakers {
		tr.Breakers[key] = *b
		tr.Rates[key] = d.FailureRate(key)
	}
	tr.Events = inj.Events()
	return tr
}

// TestEvalBatchMatchesPerRow holds the batch evaluation to the one-call
// evaluations it replaced: for every fault regime, with and without the
// FunCache, under the executor's protocol and the direct callers', a
// workload evaluated in batches of 1, 7 or everything at once must leave
// exactly what the same chunks evaluated one call at a time leave —
// outputs, every error text, counters, the per-category clock, breaker
// state, failure rates and the injector's event log, in firing order.
func TestEvalBatchMatchesPerRow(t *testing.T) {
	w := newBatchWorkload(t)
	injected := 0
	for regime := range batchRegimes {
		for _, funCache := range []bool{false, true} {
			for _, executor := range []bool{false, true} {
				for _, chunk := range []int{1, 7, 1 << 20} {
					name := fmt.Sprintf("%s/funcache=%v/executor=%v/chunk=%d", regime, funCache, executor, chunk)
					for seed := uint64(1); seed <= 3; seed++ {
						want := runBatchWorkload(t, w, regime, seed, funCache, executor, false, chunk)
						got := runBatchWorkload(t, w, regime, seed, funCache, executor, true, chunk)
						injected += len(want.Events)
						if reflect.DeepEqual(got, want) {
							continue
						}
						for i := range want.Outputs {
							if got.Outputs[i] != want.Outputs[i] {
								t.Errorf("%s seed %d: invocation %d: batch %q, per-row %q", name, seed, i, got.Outputs[i], want.Outputs[i])
								break
							}
						}
						got.Outputs, want.Outputs = nil, nil
						t.Fatalf("%s seed %d: batch left\n%+v\nper-row calls left\n%+v", name, seed, got, want)
					}
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("no fault was injected: the differential compared nothing under faults")
	}
}

// TestEvalBatchDirectChunkingInvisible: without a breaker snapshot the
// chunking itself must not show — the live breaker is consulted, and
// the clock settled, per invocation.
func TestEvalBatchDirectChunkingInvisible(t *testing.T) {
	w := newBatchWorkload(t)
	for regime := range batchRegimes {
		want := runBatchWorkload(t, w, regime, 2, false, false, true, 1)
		for _, chunk := range []int{7, 1 << 20} {
			if got := runBatchWorkload(t, w, regime, 2, false, false, true, chunk); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: chunk %d differs from chunk 1:\n%+v\n%+v", regime, chunk, got, want)
			}
		}
	}
}
