package udf

import (
	"fmt"
	"strings"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/types"
	"eva/internal/vision"
)

// Batch UDF evaluation. The apply operator hands a worker's whole chunk
// of invocations to EvalTableBatch / EvalScalarBatch; everything that is
// the same for every invocation of one UDF — the catalog entry, the
// retry policy, the injector and its fault site, the vision model, the
// registered implementation — is resolved once, and the sums (the
// evaluation and attempt counters, the profiled cost on the clock) are
// committed once. What an invocation can observe or be observed by stays
// per invocation, in the order of the calls: the injector's decision for
// each attempt, backoff charges, failure counters, error wrapping, the
// breaker outcome and the FunCache's per-key singleflight.

// Call is one UDF invocation of a batch evaluation.
type Call struct {
	Args []types.Datum // argument values; a table UDF takes one BYTES frame
	// ID keys the injector's per-invocation fault decisions (see
	// faults.CheckEval). With FunCache enabled the identity is re-derived
	// from the arguments so the injected schedule does not depend on
	// which of several same-argument rows wins the singleflight claim.
	ID uint64
	// Skip marks an invocation the caller could not form (an argument
	// failed to evaluate): it is not evaluated and counts nowhere.
	Skip bool

	// Results. A table UDF's output rows are Rows[Start : Start+N] — of
	// the batch the caller supplied, or of a FunCache entry; a scalar
	// UDF's value is in the caller's result vector.
	Rows     *types.Batch
	Start, N int
	Err      error
}

// batchEval is the state of one batch evaluation of one UDF.
type batchEval struct {
	d    *Domain
	u    *catalog.UDF
	hs   *HealthSnapshot
	sink *OutcomeSink
	dec  *vision.Decoder
	max  int // attempts per invocation
	inj  *faults.Injector
	site string // the UDF's fault site; "" without an injector

	funCache bool
	model    vision.Model // builtin: the resolved vision model
	fn       ScalarFunc   // registered implementation
	implErr  error        // nothing to run: what every attempt fails with

	// Sums committed by settle and finish.
	uncharged int // attempts whose profiled cost is not yet on the clock
	evals     int // successful invocations
	attempts  int
	transient int // attempts that failed transiently
}

// begin resolves the per-UDF state of a batch evaluation.
func (d *Domain) begin(name string, kind catalog.UDFKind, hs *HealthSnapshot, sink *OutcomeSink, dec *vision.Decoder) (batchEval, error) {
	r := d.r
	u, err := r.cat.UDF(name)
	if err != nil {
		return batchEval{}, err
	}
	if u.Kind != kind {
		if kind == catalog.KindTableUDF {
			return batchEval{}, fmt.Errorf("udf: %s is not a table UDF", name)
		}
		return batchEval{}, fmt.Errorf("udf: %s is not a scalar UDF", name)
	}
	e := batchEval{d: d, u: u, hs: hs, sink: sink, dec: dec, inj: d.injector()}
	if e.inj != nil {
		e.site = faults.SiteUDF(u.Key())
	}
	table := kind == catalog.KindTableUDF
	builtin := strings.HasPrefix(u.Impl, "builtin:")
	r.mu.Lock()
	e.max = costs.RetryMaxAttempts
	if r.retryMax > 0 {
		e.max = r.retryMax
	}
	e.funCache = r.funCache && (table || u.Expensive)
	if !table && !builtin {
		e.fn = r.impls[u.Key()]
	}
	r.mu.Unlock()
	switch {
	case table:
		if e.model, err = vision.ModelFor(u.Name); err != nil {
			e.implErr = fmt.Errorf("udf: %s: %w", u.Name, err)
		}
	case !builtin:
		if e.fn == nil {
			e.implErr = fmt.Errorf("udf: no implementation registered for %s (impl %q)", u.Name, u.Impl)
		}
	default:
		switch u.Key() {
		case "cartype", "colordet", "license", "vehiclefilter":
			e.model, e.implErr = vision.ModelFor(u.Key())
		case "area":
		default:
			e.implErr = fmt.Errorf("udf: unknown builtin %s", u.Name)
		}
	}
	return e, nil
}

// failAll is the outcome of a batch that could not begin.
func failAll(calls []Call, err error) {
	for i := range calls {
		if !calls[i].Skip {
			calls[i].Err = err
		}
	}
}

// EvalTableBatch runs a table UDF (object detector) once per call, each
// on the frame in its Args, appending the detection rows — in
// catalog.DetectorSchema's layout — to out and recording in each call
// where its rows are. The profiled per-tuple cost is charged unless
// FunCache serves the call. hs, when non-nil, replaces the live breaker
// admission check with a frozen batch-level snapshot; sink, when
// non-nil, takes the breaker outcomes in call order for a serial-order
// commit via CommitOutcomes (nil commits each at once); dec, when
// non-nil, is the caller's frame decoder (its memo then spans batches).
// The executor's apply operator supplies all three, plus an identity
// per call; the one-call forms below pass what they have.
func (d *Domain) EvalTableBatch(name string, calls []Call, hs *HealthSnapshot, sink *OutcomeSink, dec *vision.Decoder, out *types.Batch) {
	e, err := d.begin(name, catalog.KindTableUDF, hs, sink, dec)
	if err != nil {
		failAll(calls, err)
		return
	}
	for i := range calls {
		if c := &calls[i]; !c.Skip {
			c.Err = e.table(c, out)
		}
	}
	e.finish()
}

// EvalScalarBatch runs a scalar UDF once per call and stores call i's
// value in out[i]. See EvalTableBatch for hs, sink and dec.
func (d *Domain) EvalScalarBatch(name string, calls []Call, out []types.Datum, hs *HealthSnapshot, sink *OutcomeSink, dec *vision.Decoder) {
	e, err := d.begin(name, catalog.KindScalarUDF, hs, sink, dec)
	if err != nil {
		failAll(calls, err)
		return
	}
	for i := range calls {
		if c := &calls[i]; !c.Skip {
			out[i], c.Err = e.scalar(c)
		}
	}
	e.finish()
}

// table evaluates one table-UDF call, through the FunCache when it is
// on. The cache keeps a compact copy of the rows: out belongs to the
// caller, who may recycle it.
func (e *batchEval) table(c *Call, out *types.Batch) error {
	r := e.d.r
	if !e.funCache {
		return e.invoke(c, c.ID, out, nil)
	}
	key := e.d.funCacheKey(e.u.Name, c.Args)
	cached, hit, done := claimTable(r, key)
	if hit {
		r.RecordBatch(e.u.Key(), nil, 1)
		c.Rows, c.Start, c.N = cached, 0, cached.Len()
		return nil
	}
	defer done()
	if err := e.invoke(c, key.Hi^key.Lo, out, nil); err != nil {
		return err
	}
	e.d.clock.Charge(simclock.CatHash, FunCacheStoreCost)
	entry := types.NewBatchCapacity(out.Schema(), c.N)
	if err := entry.AppendRange(out, c.Start, c.Start+c.N); err != nil {
		return fmt.Errorf("udf: %s: cache result: %w", e.u.Name, err)
	}
	r.mu.Lock()
	r.tableC[key] = entry
	r.mu.Unlock()
	return nil
}

// scalar evaluates one scalar-UDF call, through the FunCache when it is
// on and the UDF is expensive.
func (e *batchEval) scalar(c *Call) (types.Datum, error) {
	r := e.d.r
	var v types.Datum
	if !e.funCache {
		err := e.invoke(c, c.ID, nil, &v)
		return v, err
	}
	key := e.d.funCacheKey(e.u.Name, c.Args)
	cached, hit, done := claimScalar(r, key)
	if hit {
		r.RecordBatch(e.u.Key(), nil, 1)
		return cached, nil
	}
	defer done()
	if err := e.invoke(c, key.Hi^key.Lo, nil, &v); err != nil {
		return types.Null, err
	}
	e.d.clock.Charge(simclock.CatHash, FunCacheStoreCost)
	r.mu.Lock()
	r.scalarC[key] = v
	r.mu.Unlock()
	return v, nil
}

// invoke runs one invocation with transient-fault retry and circuit
// breaking: a table UDF's rows go to out, a scalar UDF's value to res.
// Every attempt — failed or not — costs the model's profiled cost on
// the domain's clock; backoff between attempts is charged to the Retry
// category so resilience shows up in the simulated-time breakdown. The
// failure counters commit immediately, as does the breaker outcome of a
// batch without a sink; they are rare or order-bound. The counters of
// the common path are sums, so the batch commits them once (finish).
// lint:hotpath the attempt loop must not allocate per evaluated tuple
func (e *batchEval) invoke(c *Call, id uint64, out *types.Batch, res *types.Datum) error {
	d, u := e.d, e.u
	if e.hs != nil {
		if err := e.hs.allow(u); err != nil {
			return err
		}
	} else {
		e.settle() // the live check reads the clock
		if err := d.breakerAllow(u); err != nil {
			return err
		}
	}
	// Every per-model table is keyed by u.Key(), fixed when the UDF was
	// registered: this path runs once per evaluated row and folds no case.
	key := u.Key()
	for attempt := 1; ; attempt++ {
		e.uncharged++
		e.attempts++
		var err error
		if ferr := e.inj.CheckEval(e.site, id, attempt); ferr != nil {
			err = fmt.Errorf("udf: %s: %w", u.Name, ferr) // lint:coldalloc injected faults only
		} else if out != nil {
			err = e.detect(c, out)
		} else {
			*res, err = e.runScalar(c.Args)
		}
		if err == nil {
			e.evals++
			e.commit(true)
			return nil
		}
		isTransient := faults.IsTransient(err)
		d.r.countFailed(key, isTransient)
		if isTransient {
			e.transient++
			if attempt < e.max {
				d.clock.Charge(simclock.CatRetry, costs.RetryBackoff(attempt+1))
				d.r.countRetry(key)
				continue
			}
		}
		e.commit(false)
		if attempt > 1 {
			return fmt.Errorf("%w: %s after %d attempts: %w", ErrEvalFailed, u.Name, attempt, err)
		}
		return fmt.Errorf("%w: %w", ErrEvalFailed, err)
	}
}

// commit hands an invocation's outcome to the sink, or straight to the
// breaker — which stamps a trip with the clock's total, so the attempts
// made so far are charged first.
func (e *batchEval) commit(ok bool) {
	if e.sink != nil {
		e.sink.record(e.u.Key(), ok)
		return
	}
	e.settle()
	e.d.noteOutcome(e.u.Key(), ok)
}

// settle charges the profiled cost of the attempts made since the last
// settle. Charges are sums, so one per batch equals one per attempt;
// anything that reads the clock mid-batch settles first.
func (e *batchEval) settle() {
	e.d.clock.ChargePerTuple(simclock.CatUDF, e.u.Cost, e.uncharged)
	e.uncharged = 0
}

// finish commits the batch's sums: the clock charge, the runtime's
// evaluation counter and the domain's failure-rate observations.
func (e *batchEval) finish() {
	e.settle()
	key := e.u.Key()
	if e.evals > 0 {
		r := e.d.r
		r.mu.Lock()
		r.evals[key] += e.evals
		r.mu.Unlock()
	}
	if e.attempts > 0 {
		d := e.d
		d.mu.Lock()
		d.attempts[key] += e.attempts
		if e.transient > 0 {
			d.transient[key] += e.transient
		}
		d.mu.Unlock()
	}
}

// decoder is the caller's frame decoder, or one made for this batch
// when the caller brought none and a model needs it.
func (e *batchEval) decoder() *vision.Decoder {
	if e.dec == nil {
		e.dec = new(vision.Decoder)
	}
	return e.dec
}

// detect is one attempt of a table UDF: the detector's rows for the
// call's frame, appended to out.
func (e *batchEval) detect(c *Call, out *types.Batch) error {
	if e.implErr != nil {
		return e.implErr
	}
	start := out.Len()
	if err := e.model.DetectInto(e.decoder(), c.Args[0].Bytes(), out); err != nil {
		out.Truncate(start)
		return fmt.Errorf("udf: %s: %w", e.u.Name, err)
	}
	c.Rows, c.Start, c.N = out, start, out.Len()-start
	return nil
}

// runScalar is one attempt of a scalar UDF.
func (e *batchEval) runScalar(args []types.Datum) (types.Datum, error) {
	u := e.u
	if e.implErr != nil {
		return types.Null, e.implErr
	}
	if e.fn != nil {
		v, err := e.fn(args)
		if err != nil {
			return v, fmt.Errorf("udf: %s: %w", u.Name, err)
		}
		return v, nil
	}
	argErr := func(want string) error {
		return fmt.Errorf("udf: %s expects (%s), got %d args", u.Name, want, len(args))
	}
	switch u.Key() {
	case "cartype", "colordet", "license":
		if len(args) != 2 || args[0].Kind() != types.KindBytes || args[1].Kind() != types.KindString {
			return types.Null, argErr("frame, bbox")
		}
		v, err := e.model.Classify(e.decoder(), args[0].Bytes(), args[1].Str())
		if err != nil {
			return types.Null, fmt.Errorf("udf: %s: %w", u.Name, err)
		}
		return types.NewString(v), nil
	case "vehiclefilter":
		if len(args) != 1 || args[0].Kind() != types.KindBytes {
			return types.Null, argErr("frame")
		}
		ok, err := e.model.FilterVehicles(e.decoder(), args[0].Bytes())
		if err != nil {
			return types.Null, fmt.Errorf("udf: %s: %w", u.Name, err)
		}
		return types.NewBool(ok), nil
	default: // "area": begin admits no other builtin
		if len(args) != 1 || args[0].Kind() != types.KindString {
			return types.Null, argErr("bbox")
		}
		_, _, w, h, err := vision.ParseBBox(args[0].Str())
		if err != nil {
			return types.Null, fmt.Errorf("udf: area: %w", err)
		}
		return types.NewFloat(w * h), nil
	}
}

// EvalDetector runs a table UDF (object detector) on one frame,
// returning detection rows in catalog.DetectorSchema. Fault decisions
// are keyed by the argument-derived identity; callers with an
// executor-assigned invocation index use Domain.EvalDetectorAt.
func (r *Runtime) EvalDetector(name string, payload []byte) (*types.Batch, error) {
	return r.def.EvalDetector(name, payload)
}

// EvalDetector is the domain-scoped form of Runtime.EvalDetector.
func (d *Domain) EvalDetector(name string, payload []byte) (*types.Batch, error) {
	var id uint64
	if d.injector() != nil {
		id = EvalIdentity(name, []types.Datum{types.NewBytes(payload)})
	}
	return d.EvalDetectorAt(name, payload, id, nil, nil)
}

// EvalDetectorAt is EvalTableBatch for one call.
func (d *Domain) EvalDetectorAt(name string, payload []byte, id uint64, hs *HealthSnapshot, sink *OutcomeSink) (*types.Batch, error) {
	args := [1]types.Datum{types.NewBytes(payload)}
	calls := [1]Call{{Args: args[:], ID: id}}
	d.EvalTableBatch(name, calls[:], hs, sink, nil, types.NewBatch(catalog.DetectorSchema))
	// Rows is the fresh batch, which holds this call's rows and no
	// others, or a FunCache entry.
	return calls[0].Rows, calls[0].Err
}

// EvalScalar runs a scalar UDF over one input tuple's argument values.
// Fault decisions are keyed by the argument-derived identity; callers
// with an executor-assigned invocation index use Domain.EvalScalarAt.
func (r *Runtime) EvalScalar(name string, args []types.Datum) (types.Datum, error) {
	return r.def.EvalScalar(name, args)
}

// EvalScalar is the domain-scoped form of Runtime.EvalScalar.
func (d *Domain) EvalScalar(name string, args []types.Datum) (types.Datum, error) {
	var id uint64
	if d.injector() != nil {
		id = EvalIdentity(name, args)
	}
	return d.EvalScalarAt(name, args, id, nil, nil)
}

// EvalScalarAt is EvalScalarBatch for one call.
func (d *Domain) EvalScalarAt(name string, args []types.Datum, id uint64, hs *HealthSnapshot, sink *OutcomeSink) (types.Datum, error) {
	calls := [1]Call{{Args: args, ID: id}}
	var out [1]types.Datum
	d.EvalScalarBatch(name, calls[:], out[:], hs, sink, nil)
	if err := calls[0].Err; err != nil {
		return types.Null, err
	}
	return out[0], nil
}
