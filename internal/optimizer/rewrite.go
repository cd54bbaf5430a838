package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/udf"
	"eva/internal/vision"
)

// rankCalls computes each call's rank under the mode's ranking function
// and sorts the slice ascending (lower rank evaluates first), per
// Theorem 4.1.
func (o *Optimizer) rankCalls(calls []*scalarCall, gate symbolic.DNF, stats symbolic.Stats, mode Mode) {
	for _, sc := range calls {
		sc.sel = symbolic.Selectivity(sc.own, stats)

		relDiff := 1.0
		if mode.Reuse && mode.ReuseScalarUDFs {
			agg := o.Mgr.AggOf(sc.sig)
			diff := mode.diff(agg, gate)
			selGate := symbolic.Selectivity(gate, stats)
			selDiff := symbolic.Selectivity(diff, stats)
			if selGate > 1e-9 {
				relDiff = selDiff / selGate
			}
			if relDiff > 1 {
				relDiff = 1
			}
			if relDiff < 0 {
				relDiff = 0
			}
		}
		sc.relDiff = relDiff

		// Retry-adjusted Eq. 3 cost: a flaky model's expected retries
		// and backoff count against it in the ranking.
		ce := o.evalCost(sc.def)
		cr := costs.ScalarViewReadCost.Seconds()
		switch mode.Ranking {
		case RankMaterializationAware:
			sc.rank = (sc.sel - 1) / (relDiff*ce + cr) // Eq. 4
		default:
			sc.rank = (sc.sel - 1) / ce // Eq. 2
		}
		if math.IsNaN(sc.rank) {
			sc.rank = 0
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].rank < calls[j].rank })
}

// applyScalar rewrites one scalar UDF invocation into a ReuseApply
// (Fig. 4) and records the symbolic analysis. gate is the predicate
// associated with the invocation (everything evaluated before it).
func (o *Optimizer) applyScalar(node plan.Node, sc *scalarCall, gate symbolic.DNF, mode Mode, claims *udf.Claims, report *Report) *plan.ReuseApply {
	enabled := mode.Reuse && mode.ReuseScalarUDFs
	inter, diff := o.analyze(sc.sig, gate, mode, PredInfo{Sel: sc.sel, RelDiff: sc.relDiff, Rank: sc.rank}, report)

	var sources []plan.ApplySource
	storeView := ""
	if enabled {
		// Fig. 4 simplifications: skip the view join when p∩ is FALSE
		// (nothing materialized is relevant); skip the store when p−
		// is FALSE (nothing new will be computed).
		if !inter.IsFalse() {
			sources = append(sources, plan.ApplySource{UDF: sc.def.Name, ViewName: sc.sig.ViewName()})
		}
		if !diff.IsFalse() {
			storeView = sc.sig.ViewName()
			claims.Add(sc.sig, gate)
		}
	}
	fuzzy := false
	if mode.FuzzyBBox && enabled {
		for _, kc := range sc.sig.KeyColumns() {
			if kc == "bbox" {
				fuzzy = true
			}
		}
		// Fuzzy probing needs the view join even when the symbolic
		// analysis says the exact predicates do not intersect.
		if fuzzy && len(sources) == 0 {
			sources = append(sources, plan.ApplySource{UDF: sc.def.Name, ViewName: sc.sig.ViewName()})
		}
	}
	return &plan.ReuseApply{
		Input:     node,
		Args:      sc.call.Args,
		Sources:   sources,
		Eval:      sc.def.Name,
		StoreView: storeView,
		TableUDF:  false,
		Out:       sc.def.Outputs,
		KeyCols:   sc.sig.KeyColumns(),
		FuzzyBBox: fuzzy,
	}
}

// analyze derives INTER, DIFF and UNION of the signature's aggregated
// predicate p_u with the invocation's predicate gate (§4.1) and records
// info, completed with their atom counts, as the invocation's PredInfo.
// INTER and DIFF decide the Fig. 4 rewrite.
func (o *Optimizer) analyze(sig udf.Signature, gate symbolic.DNF, mode Mode, info PredInfo, report *Report) (inter, diff symbolic.DNF) {
	agg := o.Mgr.AggOf(sig)
	inter, diff = mode.inter(agg, gate), mode.diff(agg, gate)
	info.Signature, info.Query = sig.Key(), gate.String()
	info.InterAtoms, info.DiffAtoms, info.UnionAtoms = inter.AtomCount(), diff.AtomCount(), mode.union(agg, gate).AtomCount()
	report.Preds[sig.Key()] = info
	return inter, diff
}

// detector is the CROSS APPLY clause bound to physical models: the
// model that evaluates and its signature, the view sources known before
// Algorithm 2 runs, and — when it runs — its candidates with their
// signatures (none otherwise).
type detector struct {
	apply    *parser.ApplyClause
	eval     *catalog.UDF
	sig      udf.Signature
	sources  []plan.ApplySource
	cands    []*catalog.UDF
	candSigs []udf.Signature
}

// appendSigs appends to sigs the signatures whose aggregated predicates
// planning the detector reads: Algorithm 2's candidates or the evaluating
// model's — none without reuse.
func (d *detector) appendSigs(sigs []udf.Signature, mode Mode) []udf.Signature {
	switch {
	case !mode.Reuse:
		return sigs
	case len(d.cands) > 0:
		return append(sigs, d.candSigs...)
	}
	return append(sigs, d.sig)
}

// bindDetector binds the CROSS APPLY clause to the physical model that
// evaluates it and, for a logical UDF under Algorithm 2, the candidate
// models whose views may serve it.
func (o *Optimizer) bindDetector(apply *parser.ApplyClause, mode Mode, table *catalog.Table, report *Report) (detector, error) {
	minAcc := vision.AccuracyLow
	if apply.Accuracy != "" {
		lvl, err := vision.ParseAccuracy(apply.Accuracy)
		if err != nil {
			return detector{}, fmt.Errorf("optimizer: %s: %w", apply.Fn, err)
		}
		minAcc = lvl
	}
	d := detector{apply: apply}
	if o.Cat.HasUDF(apply.Fn) {
		def, err := o.Cat.UDF(apply.Fn)
		if err != nil {
			return detector{}, fmt.Errorf("optimizer: %w", err)
		}
		if def.Kind != catalog.KindTableUDF {
			return detector{}, fmt.Errorf("optimizer: %s is not a table UDF (CROSS APPLY requires one)", apply.Fn)
		}
		d.eval = def
		d.sig = udf.NewSignature(table.Name, def.Name, apply.Args)
		if mode.Reuse {
			d.sources = append(d.sources, plan.ApplySource{UDF: def.Name, ViewName: d.sig.ViewName()})
		}
		return d, nil
	}
	cands := o.Cat.UDFsForLogical(apply.Fn, minAcc)
	if len(cands) == 0 {
		return detector{}, fmt.Errorf("optimizer: no physical UDF implements %s with accuracy ≥ %s", apply.Fn, minAcc)
	}
	// Graceful degradation: the eval target must be healthy (its
	// breaker closed) and cheapest by retry-adjusted cost; view
	// sources below are deliberately not filtered, since reading a
	// broken model's materialized results is safe.
	d.eval = o.pickEval(apply.Fn, cands, report)
	if d.eval == nil {
		return detector{}, fmt.Errorf("optimizer: every physical UDF implementing %s is unavailable (circuit breakers open)", apply.Fn)
	}
	d.sig = udf.NewSignature(table.Name, d.eval.Name, apply.Args)
	switch {
	case mode.Logical == LogicalMinCostNoReuse || !mode.Reuse:
	case mode.Logical == LogicalMinCost:
		d.sources = append(d.sources, plan.ApplySource{UDF: d.eval.Name, ViewName: d.sig.ViewName()})
	default: // LogicalEVA: Algorithm 2
		d.cands = cands
		for _, def := range cands {
			d.candSigs = append(d.candSigs, udf.NewSignature(table.Name, def.Name, apply.Args))
		}
	}
	return d, nil
}

// applyDetector rewrites the bound CROSS APPLY clause into a ReuseApply,
// running Algorithm 2 for a logical UDF.
func (o *Optimizer) applyDetector(node plan.Node, d *detector, gate symbolic.DNF, mode Mode, stats symbolic.Stats, claims *udf.Claims, report *Report) *plan.ReuseApply {
	sources, evalUDF, sig := d.sources, d.eval, d.sig
	if len(d.cands) > 0 {
		sources = o.selectPhysicalUDFs(evalUDF, d.cands, d.candSigs, gate, stats, mode)
	}
	storeView := ""
	if mode.Reuse {
		storeView = sig.ViewName()
		// Ensure the eval model's own view is probed too (it may
		// already hold results from earlier queries).
		found := false
		for _, s := range sources {
			if s.ViewName == sig.ViewName() {
				found = true
			}
		}
		if !found {
			sources = append(sources, plan.ApplySource{UDF: evalUDF.Name, ViewName: sig.ViewName()})
		}
		if mode.TableCovered != nil {
			// HashStash semantics: reuse only under full coverage,
			// otherwise run from scratch and materialize.
			if mode.TableCovered(evalUDF.Name, report.ScanLo, report.ScanHi) {
				storeView = ""
			} else {
				sources = nil
			}
		}
		_, diff := o.analyze(sig, gate, mode, PredInfo{Sel: 1, RelDiff: 1}, report)
		// The STORE stays in the plan either way (appends skip the keys
		// the view holds); only a DIFF that is not FALSE can add to p_u.
		if storeView != "" && !diff.IsFalse() {
			claims.Add(sig, gate)
		}
	}

	report.DetectorEval = evalUDF.Name
	for _, s := range sources {
		report.DetectorSources = append(report.DetectorSources, s.ViewName)
	}
	return &plan.ReuseApply{
		Input:     node,
		Args:      d.apply.Args,
		Sources:   sources,
		Eval:      evalUDF.Name,
		StoreView: storeView,
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   sig.KeyColumns(),
	}
}

// buildOutput assembles the projection / aggregation tail of the plan,
// substituting computed UDF outputs for their call expressions.
func (o *Optimizer) buildOutput(node plan.Node, stmt *parser.SelectStmt, computed map[string]string) (plan.Node, error) {

	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if it.Star || it.Expr == nil {
			continue
		}
		if c, ok := it.Expr.(*expr.Call); ok && isAggregate(c.Fn) {
			hasAgg = true
		}
	}

	if hasAgg {
		var aggs []plan.Agg
		var outItems []plan.ProjItem
		for i, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("optimizer: SELECT * cannot be combined with GROUP BY")
			}
			name := it.Alias
			if c, ok := it.Expr.(*expr.Call); ok && isAggregate(c.Fn) {
				kind, err := aggKind(c.Fn)
				if err != nil {
					return nil, err
				}
				var arg expr.Expr
				if len(c.Args) == 1 {
					if _, star := c.Args[0].(expr.Star); !star {
						arg = rewriteComputed(c.Args[0], computed)
					}
				}
				if name == "" {
					name = fmt.Sprintf("%s_%d", strings.ToLower(c.Fn), i)
				}
				agg := plan.Agg{Kind: kind, Arg: arg, Name: name}
				if arg != nil {
					agg.ArgKind = expr.KindOf(arg, node.Schema(), o.scalarKind)
				}
				aggs = append(aggs, agg)
				outItems = append(outItems, plan.ProjItem{Name: name, E: expr.NewColumn(name)})
				continue
			}
			col, ok := it.Expr.(*expr.Column)
			if !ok {
				return nil, fmt.Errorf("optimizer: non-aggregate item %q must be a grouping column", it.Expr)
			}
			inKeys := false
			for _, k := range stmt.GroupBy {
				if strings.EqualFold(k, col.Name) {
					inKeys = true
				}
			}
			if !inKeys {
				return nil, fmt.Errorf("optimizer: column %q is not in GROUP BY", col.Name)
			}
			if name == "" {
				name = col.Name
			}
			outItems = append(outItems, plan.ProjItem{Name: name, E: expr.NewColumn(col.Name)})
		}
		node = &plan.GroupBy{Input: node, Keys: stmt.GroupBy, Aggs: aggs}
		return &plan.Project{Input: node, Items: outItems}, nil
	}

	var items []plan.ProjItem
	for i, it := range stmt.Items {
		if it.Star {
			for _, c := range node.Schema() {
				items = append(items, plan.ProjItem{Name: c.Name, E: expr.NewColumn(c.Name), Kind: c.Kind})
			}
			continue
		}
		e := rewriteComputed(it.Expr, computed)
		name := it.Alias
		if name == "" {
			if c, ok := e.(*expr.Column); ok {
				name = c.Name
			} else {
				name = fmt.Sprintf("col_%d", i)
			}
		}
		// A rewritten call is by now a column of its apply's output; a
		// call left in place (an inexpensive UDF) has the kind its
		// definition declares.
		items = append(items, plan.ProjItem{Name: name, E: e, Kind: expr.KindOf(e, node.Schema(), o.scalarKind)})
	}
	return &plan.Project{Input: node, Items: items}, nil
}

// scalarKind is the optimizer's expr.FuncKinds: the output kind a
// scalar UDF's definition declares.
func (o *Optimizer) scalarKind(fn string) types.Kind {
	u, err := o.Cat.UDF(fn)
	if err != nil || u.Kind != catalog.KindScalarUDF || len(u.Outputs) == 0 {
		return types.KindNull
	}
	return u.Outputs[0].Kind
}

func aggKind(fn string) (plan.AggKind, error) {
	switch strings.ToUpper(fn) {
	case "COUNT":
		return plan.AggCount, nil
	case "SUM":
		return plan.AggSum, nil
	case "AVG":
		return plan.AggAvg, nil
	case "MIN":
		return plan.AggMin, nil
	case "MAX":
		return plan.AggMax, nil
	default:
		return 0, fmt.Errorf("optimizer: unknown aggregate %q", fn)
	}
}
