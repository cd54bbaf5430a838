package core

import (
	"fmt"

	"eva/internal/faults"
	"eva/internal/storage"
	"eva/internal/symbolic"
	"eva/internal/udf"
)

// viewPredicates is the UDF manager's udf.PredicateStore: a signature's
// aggregated predicate is durable in the log of the view it describes,
// so the two cannot drift apart and a restart costs a read, not a
// recomputation of what the views already hold.
type viewPredicates struct{ store *storage.Engine }

// view is the signature's view, open or on disk; nil when it has none.
func (p viewPredicates) view(sig udf.Signature) *storage.View {
	return p.store.Existing(sig.ViewName())
}

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
	ranges, ok := v.SurvivedIDRanges()
	if !ok || len(ranges) == 0 {
		return symbolic.False()
	}
	ivs := make([]symbolic.Interval, 0, len(ranges))
	for _, r := range ranges {
		ivs = append(ivs, symbolic.Interval{Lo: float64(r.Lo), Hi: float64(r.Hi)})
	}
	return symbolic.FromConjuncts(symbolic.NewConjunct().
		WithConstraint("id", symbolic.NumConstraint(symbolic.NewIntervalSet(ivs...))))
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
// exactly as the STOREs that preceded it were. Every other claim — and,
// when a snapshot cannot be written at all, whatever is left — is
// withdrawn: the rows stay in the views, merely unpromised.
func (e *Engine) settle(claims *udf.Claims, stored map[string]int, opts ExecOpts) error {
	claims.AbortIf(func(sig udf.Signature) bool {
		stored[sig.ViewName()]--
		return stored[sig.ViewName()] < 0
	})
	// One attempt commits as far as disk space lets it, making room as
	// often as the reclaim ladder can; a transient write fault is what is
	// left for the retry loop.
	var sig udf.Signature
	full := 1
	err := faults.Retry(opts.Clock, func() (err error) {
		for ; ; full++ {
			if sig, err = claims.Commit(opts.Faults); err == nil {
				return nil
			}
			v := e.Store.Existing(sig.ViewName())
			if v == nil || !storage.IsDiskFull(err) {
				return err
			}
			if err = v.MakeRoom(err, full); err != nil {
				return err
			}
		}
	})
	if err != nil {
		claims.Abort()
		return fmt.Errorf("core: commit aggregated predicate of %s: %w", sig.ViewName(), err)
	}
	return nil
}
