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
		own, err := symbolic.FromExpr(expr.CombineConjuncts(sc.ownPreds))
		if err != nil {
			// Unanalyzable own-predicates: assume non-selective.
			own = symbolic.True()
		}
		s := symbolic.Selectivity(own, stats)
		if len(sc.ownPreds) == 0 {
			s = 1
		}
		sc.sel = s

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
			sc.rank = (s - 1) / (relDiff*ce + cr) // Eq. 4
		default:
			sc.rank = (s - 1) / ce // Eq. 2
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
	agg := o.Mgr.AggOf(sc.sig)

	inter := mode.inter(agg, gate)
	diff := mode.diff(agg, gate)
	union := mode.union(agg, gate)
	info := PredInfo{
		Signature:  sc.sig.Key(),
		Query:      gate.String(),
		InterAtoms: inter.AtomCount(),
		DiffAtoms:  diff.AtomCount(),
		UnionAtoms: union.AtomCount(),
		Sel:        sc.sel,
		RelDiff:    sc.relDiff,
		Rank:       sc.rank,
	}
	report.Preds[sc.sig.Key()] = info

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

// applyDetector binds the CROSS APPLY clause to physical detectors and
// rewrites it into a ReuseApply, running Algorithm 2 for logical UDFs.
func (o *Optimizer) applyDetector(node plan.Node, apply *parser.ApplyClause, gate symbolic.DNF, mode Mode, stats symbolic.Stats, table *catalog.Table, claims *udf.Claims, report *Report) (*plan.ReuseApply, error) {
	minAcc := vision.AccuracyLow
	if apply.Accuracy != "" {
		lvl, err := vision.ParseAccuracy(apply.Accuracy)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %s: %w", apply.Fn, err)
		}
		minAcc = lvl
	}

	var evalUDF *catalog.UDF
	var sources []plan.ApplySource
	logical := !o.Cat.HasUDF(apply.Fn)

	if !logical {
		def, err := o.Cat.UDF(apply.Fn)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %w", err)
		}
		if def.Kind != catalog.KindTableUDF {
			return nil, fmt.Errorf("optimizer: %s is not a table UDF (CROSS APPLY requires one)", apply.Fn)
		}
		evalUDF = def
		if mode.Reuse {
			sig := udf.NewSignature(table.Name, def.Name, apply.Args)
			sources = append(sources, plan.ApplySource{UDF: def.Name, ViewName: sig.ViewName()})
		}
	} else {
		cands := o.Cat.UDFsForLogical(apply.Fn, minAcc)
		if len(cands) == 0 {
			return nil, fmt.Errorf("optimizer: no physical UDF implements %s with accuracy ≥ %s", apply.Fn, minAcc)
		}
		// Graceful degradation: the eval target must be healthy (its
		// breaker closed) and cheapest by retry-adjusted cost; view
		// sources below are deliberately not filtered, since reading a
		// broken model's materialized results is safe.
		cheapest := o.pickEval(apply.Fn, cands, report)
		if cheapest == nil {
			return nil, fmt.Errorf("optimizer: every physical UDF implementing %s is unavailable (circuit breakers open)", apply.Fn)
		}
		switch {
		case mode.Logical == LogicalMinCostNoReuse || !mode.Reuse:
			evalUDF = cheapest
		case mode.Logical == LogicalMinCost:
			evalUDF = cheapest
			sig := udf.NewSignature(table.Name, cheapest.Name, apply.Args)
			sources = append(sources, plan.ApplySource{UDF: cheapest.Name, ViewName: sig.ViewName()})
		default: // LogicalEVA: Algorithm 2
			evalUDF = cheapest
			sources = o.selectPhysicalUDFs(table.Name, cheapest, cands, apply.Args, gate, stats, mode)
		}
	}

	sig := udf.NewSignature(table.Name, evalUDF.Name, apply.Args)
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
		agg := o.Mgr.AggOf(sig)
		inter := mode.inter(agg, gate)
		diff := mode.diff(agg, gate)
		union := mode.union(agg, gate)
		report.Preds[sig.Key()] = PredInfo{
			Signature:  sig.Key(),
			Query:      gate.String(),
			InterAtoms: inter.AtomCount(),
			DiffAtoms:  diff.AtomCount(),
			UnionAtoms: union.AtomCount(),
			Sel:        1,
			RelDiff:    1,
		}
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
		Args:      apply.Args,
		Sources:   sources,
		Eval:      evalUDF.Name,
		StoreView: storeView,
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   sig.KeyColumns(),
	}, nil
}

// buildOutput assembles the projection / aggregation tail of the plan,
// substituting computed UDF outputs for their call expressions.
func (o *Optimizer) buildOutput(node plan.Node, stmt *parser.SelectStmt, calls []*scalarCall) (plan.Node, error) {
	computed := map[string]string{} // canonical call -> output column
	for _, sc := range calls {
		computed[sc.call.String()] = sc.def.OutputColumn()
	}
	rewrite := func(e expr.Expr) expr.Expr {
		return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if c, ok := n.(*expr.Call); ok {
				if col, ok := computed[c.String()]; ok {
					return expr.NewColumn(col)
				}
			}
			return n
		})
	}

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
						arg = rewrite(c.Args[0])
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
		e := rewrite(it.Expr)
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
