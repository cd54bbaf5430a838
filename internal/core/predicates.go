package core

import (
	"fmt"

	"eva/internal/faults"
	"eva/internal/simclock"
	"eva/internal/storage"
	"eva/internal/symbolic"
	"eva/internal/udf"
)

// viewPredicates is the UDF manager's udf.PredicateStore: a signature's
// aggregated predicate is durable in the log of the view it describes,
// so the two cannot drift apart and a restart costs a read, not a
// recomputation of what the views already hold. Open is the engine's
// open; every other method works on the view only if it is open
// already, so none opens a log under the manager's lock.
type viewPredicates struct{ store *storage.Engine }

// view is the signature's view if it is open; nil otherwise.
func (p viewPredicates) view(sig udf.Signature) *storage.View {
	return p.store.Opened(sig.ViewName())
}

func (p viewPredicates) Open(sig udf.Signature) { p.store.Existing(sig.ViewName()) }

func (p viewPredicates) Load(sig udf.Signature) ([]byte, bool) {
	v := p.view(sig)
	if v == nil {
		return nil, false
	}
	return v.Predicate()
}

// Survived is exact for a view keyed by frame id alone: the surviving
// processed keys translate into an id-interval predicate. Other key
// shapes (scalar UDFs keyed by bounding box) get the conservative claim
// — FALSE — because a surviving id may still have lost sibling keys in
// another record; retracting everything keeps the symbolic layer
// truthful and lets per-key probing reuse whatever actually survived.
func (p viewPredicates) Survived(sig udf.Signature) symbolic.DNF {
	kc := sig.KeyColumns()
	v := p.view(sig)
	if v == nil || len(kc) != 1 || kc[0] != "id" {
		return symbolic.False()
	}
	return symbolic.FromIDRanges(v.SurvivedIDRanges())
}

func (p viewPredicates) Append(sig udf.Signature, pred []byte, inj *faults.Injector) error {
	v := p.view(sig)
	if v == nil {
		// The statement stored into this view, so it exists; a view
		// dropped under a running statement has nothing left to describe.
		return nil
	}
	return v.AppendPredicate(pred, inj)
}

func (p viewPredicates) Shrink(sig udf.Signature, pred []byte) {
	if v := p.view(sig); v != nil {
		v.ShrinkPredicate(pred)
	}
}

// settle ends one plan attempt's claims. stored counts, per store view,
// the applies that ran to completion (exec.Context.Stored); claims are
// matched to them in plan order, the order both were made in. A claim
// whose apply completed becomes part of its signature's committed
// predicate, durably: a snapshot that does not fit on disk runs the
// reclaim ladder and a transient write fault is retried with backoff,
// exactly as the STOREs that preceded it were: under the store's one
// retry loop, charged to the statement's clock. Every other claim — and,
// when a snapshot cannot be written at all, whatever is left — is
// withdrawn: the rows stay in the views, merely unpromised.
func (e *Engine) settle(claims *udf.Claims, stored map[string]int, clock *simclock.Clock, inj *faults.Injector) error {
	claims.AbortIf(func(sig udf.Signature) bool {
		stored[sig.ViewName()]--
		return stored[sig.ViewName()] < 0
	})
	// Each attempt commits as far as disk space lets it; the next one
	// goes on from the snapshot that did not fit.
	var sig udf.Signature
	err := e.Store.Retry(clock, func() (err error) {
		sig, err = claims.Commit(inj)
		return err
	})
	if err != nil {
		claims.Abort()
		return fmt.Errorf("core: commit aggregated predicate of %s: %w", sig.ViewName(), err)
	}
	return nil
}
