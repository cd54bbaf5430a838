package optimizer

import (
	"fmt"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/symbolic"
	"eva/internal/udf"
)

// selectPhysicalUDFs implements Algorithm 2: the greedy weighted
// set-cover selection of physical UDF views for a logical vision task
// (Theorem 4.2). Candidates are the physical UDFs satisfying the
// accuracy constraint; the universe is the set of tuples matching the
// invocation predicate q; each view's covered set is approximated
// symbolically by the selectivity of INTER(p_x, q); and the weight is
// the cost of reading the view. Views are picked while their cost per
// uncovered tuple beats evaluating the cheapest physical UDF.
func (o *Optimizer) selectPhysicalUDFs(table string, eval *catalog.UDF, cands []*catalog.UDF, args []expr.Expr, q symbolic.DNF, stats symbolic.Stats, mode Mode) []plan.ApplySource {
	type cand struct {
		def *catalog.UDF
		sig udf.Signature
		agg symbolic.DNF
	}
	var xs []cand
	for _, def := range cands {
		sig := udf.NewSignature(table, def.Name, args)
		xs = append(xs, cand{def: def, sig: sig, agg: o.Mgr.AggOf(sig)})
	}
	// The alternative to reading a view is evaluating the chosen model:
	// its per-tuple cost (line 3), retry-adjusted so a flaky evaluator
	// makes view reuse comparatively more attractive.
	cy := o.evalCost(eval)
	cr := costs.TableViewReadCost.Seconds()

	var out []plan.ApplySource
	chosen := map[string]bool{}
	rem := q
	for iter := 0; iter < len(xs); iter++ {
		selRem := symbolic.Selectivity(rem, stats)
		if rem.IsFalse() || selRem < 1e-6 {
			break
		}
		bestIdx, bestW := -1, 0.0
		for i, x := range xs {
			if chosen[x.sig.Key()] {
				continue
			}
			inter := mode.inter(x.agg, rem)
			covered := symbolic.Selectivity(inter, stats)
			if covered < 1e-9 {
				continue
			}
			// W(x, q) = C(m_x) / (s_{p∩} · |m_x|) (line 6). With the
			// per-key read cost c_r, C(m_x) over the covered keys is
			// c_r · covered·|R|, so the cost *per uncovered tuple* is
			// c_r scaled by how much of the view read is wasted on
			// tuples outside q.
			selView := symbolic.Selectivity(x.agg, stats)
			w := cr * selView / covered
			if bestIdx < 0 || w < bestW {
				bestIdx, bestW = i, w
			}
		}
		if bestIdx < 0 || bestW >= cy {
			// Running the cheapest UDF is better for the remainder
			// (lines 11–13).
			break
		}
		x := xs[bestIdx]
		chosen[x.sig.Key()] = true
		out = append(out, plan.ApplySource{UDF: x.def.Name, ViewName: x.sig.ViewName()})
		rem = mode.diff(x.agg, rem)
	}
	return out
}

// rewriteComputed substitutes already-computed UDF calls (keyed by
// their canonical rendering) with their output columns.
func rewriteComputed(e expr.Expr, computed map[string]string) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.Call); ok {
			if col, ok := computed[c.String()]; ok {
				return expr.NewColumn(col)
			}
		}
		return n
	})
}

// expensive reports whether call invokes an expensive scalar UDF, which
// only an Apply evaluates; it fails for a function the catalog does not
// know.
func (o *Optimizer) expensive(call *expr.Call) (bool, error) {
	u, err := o.Cat.UDF(call.Fn)
	if err != nil {
		return false, fmt.Errorf("optimizer: %w", err)
	}
	return u.Expensive && u.Kind == catalog.KindScalarUDF, nil
}

// computable reports whether e calls no expensive scalar UDF, so a
// selection can evaluate it.
func (o *Optimizer) computable(e expr.Expr) bool {
	for _, call := range expr.CollectCalls(e) {
		if ok, err := o.expensive(call); err == nil && ok {
			return false
		}
	}
	return true
}
