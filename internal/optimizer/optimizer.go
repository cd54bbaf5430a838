// Package optimizer implements EVA's Cascades-style query optimizer
// with the semantic reuse algorithm of §3.1:
//
//	① identify candidate UDFs (profiled cost filter),
//	② compute UDF signatures and fetch aggregated predicates,
//	③ materialization-aware optimizations — predicate reordering with
//	   the Eq. 4 ranking and logical UDF reuse via greedy weighted set
//	   cover (Algorithm 2),
//	④ rule-based transformation — the UDF-based predicate rule (Fig. 3)
//	   unpacks multi-UDF selections into an Apply chain, and the
//	   materialization-aware rule (Fig. 4) splices view reads, guarded
//	   evaluation, and STOREs into each Apply.
package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"eva/internal/catalog"
	"eva/internal/costs"
	"eva/internal/expr"
	"eva/internal/parser"
	"eva/internal/plan"
	"eva/internal/simclock"
	"eva/internal/symbolic"
	"eva/internal/udf"
	"eva/internal/vision"
)

// RankingKind selects the predicate-reordering ranking function.
type RankingKind int

// Ranking functions.
const (
	// RankCanonical is Eq. 2: r = (s−1)/c.
	RankCanonical RankingKind = iota
	// RankMaterializationAware is Eq. 4: r = (s−1)/(s_p−·c_e + c_r).
	RankMaterializationAware
)

// LogicalMode selects how a logical UDF is bound to physical models.
type LogicalMode int

// Logical UDF binding strategies (§5.4, Fig. 10).
const (
	// LogicalEVA runs Algorithm 2 (greedy weighted set cover over views).
	LogicalEVA LogicalMode = iota
	// LogicalMinCost picks the cheapest satisfying model and reuses
	// only that model's view.
	LogicalMinCost
	// LogicalMinCostNoReuse picks the cheapest satisfying model with
	// reuse disabled.
	LogicalMinCostNoReuse
)

// Mode configures the optimizer per system-under-test; the benchmark
// baselines are expressed as Mode values.
type Mode struct {
	// Reuse enables materialized-view reuse for table UDFs.
	Reuse bool
	// ReuseScalarUDFs enables reuse for scalar UDFs in predicates and
	// projections. HashStash keeps this false: sub-plan matching only
	// captures operator-level (detector) outputs (§5.2).
	ReuseScalarUDFs bool
	// Ranking selects the predicate-reordering ranking function.
	Ranking RankingKind
	// Logical selects the logical-UDF binding strategy.
	Logical LogicalMode
	// DisableReduction skips Algorithm 1 reduction (ablation).
	DisableReduction bool
	// FuzzyBBox enables the §6 fuzzy bounding-box reuse extension on
	// scalar UDFs keyed by (bbox, id): results materialized for a
	// different detector's boxes may serve spatially matching boxes.
	FuzzyBBox bool
	// DryRun stops after planning: nothing is executed, no aggregated
	// predicate is claimed (EXPLAIN).
	DryRun bool
	// TableCovered, when set, gates table-UDF reuse HashStash-style:
	// the callback reports whether previously materialized results
	// cover the query's frame range. Covered queries read only from
	// the view; uncovered queries evaluate from scratch and
	// materialize (all-or-nothing, no difference computation).
	TableCovered func(udfName string, lo, hi int64) bool
}

// EVAMode is the full system configuration.
func EVAMode() Mode {
	return Mode{Reuse: true, ReuseScalarUDFs: true, Ranking: RankMaterializationAware, Logical: LogicalEVA}
}

// NoReuseMode disables all reuse.
func NoReuseMode() Mode {
	return Mode{Ranking: RankCanonical, Logical: LogicalMinCostNoReuse}
}

// PredInfo records the symbolic analysis for one UDF invocation; the
// Fig. 7 experiment plots the atom counts.
type PredInfo struct {
	Signature  string
	Query      string // the associated predicate q
	InterAtoms int
	DiffAtoms  int
	UnionAtoms int
	Sel        float64 // selectivity of the UDF's own predicate (s)
	RelDiff    float64 // s_p−: fraction of gated tuples missing from the view
	Rank       float64
}

// Report captures the optimizer's decisions for tests and experiments.
type Report struct {
	ScanLo, ScanHi  int64
	PreOrder        []string // scalar UDFs applied before the detector
	Order           []string // scalar UDFs applied after the detector, in rank order
	DetectorEval    string
	DetectorSources []string
	Preds           map[string]PredInfo
	OptimizeTime    time.Duration
	// Degraded lists logical bindings that passed over models with
	// open circuit breakers (graceful degradation, in decision order).
	Degraded []Degradation
}

// Result is an optimized statement.
type Result struct {
	Plan   plan.Node
	Report Report
}

// Optimizer holds the long-lived optimization state.
type Optimizer struct {
	Cat   *catalog.Catalog
	Mgr   *udf.Manager
	Clock *simclock.Clock
	// Health, when set, gates eval-model selection on circuit-breaker
	// state and feeds observed failure rates into the Eq. 3 cost model
	// (nil = every model healthy, costs unadjusted).
	Health HealthView
}

// New returns an optimizer over the catalog and UDF manager.
func New(cat *catalog.Catalog, mgr *udf.Manager, clock *simclock.Clock) *Optimizer {
	return &Optimizer{Cat: cat, Mgr: mgr, Clock: clock}
}

// reduce applies Algorithm 1 unless the mode disables it.
func (m Mode) reduce(d symbolic.DNF) symbolic.DNF {
	if m.DisableReduction {
		return d
	}
	return symbolic.Reduce(d)
}

func (m Mode) inter(a, b symbolic.DNF) symbolic.DNF { return m.reduce(a.And(b)) }
func (m Mode) diff(a, b symbolic.DNF) symbolic.DNF  { return m.reduce(a.Not().And(b)) }
func (m Mode) union(a, b symbolic.DNF) symbolic.DNF { return m.reduce(a.Or(b)) }

// scalarCall is one expensive scalar UDF invocation scheduled by the
// optimizer.
type scalarCall struct {
	call     *expr.Call
	def      *catalog.UDF
	sig      udf.Signature
	ownPreds []expr.Expr // conjuncts referencing this call
	pre      bool        // can run before the detector
	sel      float64
	relDiff  float64
	rank     float64
}

// Optimize turns a parsed SELECT into a physical plan under the mode.
// claims receives the gate of every invocation the plan will store
// results for — the statement's claims on the aggregated predicates,
// which its caller commits once the plan has run, or withdraws; nil
// plans without claiming anything (EXPLAIN).
func (o *Optimizer) Optimize(stmt *parser.SelectStmt, mode Mode, claims *udf.Claims) (*Result, error) {
	// The optimizer self-times for diagnostic output only; the virtual
	// clock is charged a modeled cost below, never this measurement.
	// lint:wallclock diagnostic self-timing
	start := time.Now()
	res, err := o.optimize(stmt, mode, claims)
	elapsed := time.Since(start) // lint:wallclock diagnostic self-timing
	if o.Clock != nil && res != nil {
		// The optimizer's own work (symbolic analysis included) is
		// Fig. 6(b)'s "Optimization" overhead source. Charge a modeled
		// cost proportional to the symbolic atoms processed, never the
		// measured wall time: the virtual clock must stay deterministic
		// across runs and machines (wall-time charges made golden
		// outputs wobble at the rounding boundary).
		atoms := 0
		for _, pi := range res.Report.Preds {
			atoms += pi.InterAtoms + pi.DiffAtoms + pi.UnionAtoms
		}
		o.Clock.Charge(simclock.CatOptimize,
			costs.OptimizeBaseCost+time.Duration(atoms)*costs.OptimizeAtomCost)
	}
	if res != nil {
		res.Report.OptimizeTime = elapsed
	}
	return res, err
}

func (o *Optimizer) optimize(stmt *parser.SelectStmt, mode Mode, claims *udf.Claims) (*Result, error) {
	table, err := o.Cat.Table(stmt.From)
	if err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	stats := table.Stats
	report := Report{Preds: map[string]PredInfo{}}

	// --- Classify WHERE conjuncts. ---
	conjuncts := []expr.Expr{}
	if stmt.Where != nil {
		conjuncts = expr.SplitConjuncts(stmt.Where)
	}
	detSchema := catalog.DetectorSchema
	var scanPreds, detPreds []expr.Expr
	callPreds := map[string][]expr.Expr{} // canonical call -> conjuncts
	callByKey := map[string]*expr.Call{}

	classify := func(c expr.Expr) error {
		calls := expr.CollectCalls(c)
		var expensive []*expr.Call
		for _, call := range calls {
			u, err := o.Cat.UDF(call.Fn)
			if err != nil {
				return fmt.Errorf("optimizer: %w", err)
			}
			if u.Expensive && u.Kind == catalog.KindScalarUDF {
				expensive = append(expensive, call)
			}
		}
		if len(expensive) > 0 {
			for _, call := range expensive {
				key := call.String()
				callPreds[key] = append(callPreds[key], c)
				callByKey[key] = call
			}
			return nil
		}
		// Column-only (or cheap-call) conjunct: before or after detector?
		usesDet := false
		for _, col := range expr.CollectColumns(c) {
			if detSchema.Has(col) && !table.Schema.Has(col) {
				usesDet = true
			}
		}
		if usesDet {
			detPreds = append(detPreds, c)
		} else {
			scanPreds = append(scanPreds, c)
		}
		return nil
	}
	for _, c := range conjuncts {
		if err := classify(c); err != nil {
			return nil, err
		}
	}

	// Expensive calls in the projection (no own predicate) must also be
	// scheduled (e.g. SELECT LICENSE(bbox, frame) ...).
	for _, item := range stmt.Items {
		if item.Star || item.Expr == nil {
			continue
		}
		for _, call := range expr.CollectCalls(item.Expr) {
			u, err := o.Cat.UDF(call.Fn)
			if err != nil {
				if isAggregate(call.Fn) {
					continue
				}
				return nil, fmt.Errorf("optimizer: %w", err)
			}
			if u.Expensive && u.Kind == catalog.KindScalarUDF {
				key := call.String()
				if _, seen := callByKey[key]; !seen {
					callByKey[key] = call
					callPreds[key] = nil
				}
			}
		}
	}

	// --- Scan range pushdown from id predicates. ---
	scanDNF, err := symbolic.FromExpr(expr.CombineConjuncts(scanPreds))
	if err != nil {
		return nil, fmt.Errorf("optimizer: scan predicate: %w", err)
	}
	scanDNF = mode.reduce(scanDNF)
	lo, hi := idRange(scanDNF, table.RowCount())
	report.ScanLo, report.ScanHi = lo, hi

	var node plan.Node = &plan.Scan{Table: table.Name, Sch: table.Schema, Lo: lo, Hi: hi}
	if residual := expr.CombineConjuncts(scanPreds); residual != nil {
		node = &plan.Filter{Input: node, Pred: residual}
	}

	// --- Build scalar call descriptors. ---
	// Iterate in sorted key order: callByKey is a map, and letting its
	// iteration order pick the Apply stacking order makes plans (and
	// simulated time) nondeterministic run to run.
	callKeys := make([]string, 0, len(callByKey))
	for key := range callByKey {
		callKeys = append(callKeys, key)
	}
	sort.Strings(callKeys)
	var calls []*scalarCall
	for _, key := range callKeys {
		call := callByKey[key]
		def, err := o.Cat.UDF(call.Fn)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %w", err)
		}
		def, err = o.resolveScalarPhysical(call, def, &report)
		if err != nil {
			return nil, err
		}
		sc := &scalarCall{call: call, def: def, ownPreds: callPreds[key], sig: udf.NewSignature(table.Name, def.Name, call.Args)}
		sc.pre = true
		for _, arg := range call.Args {
			for _, col := range expr.CollectColumns(arg) {
				if !table.Schema.Has(col) {
					sc.pre = false
				}
			}
		}
		for _, c := range sc.ownPreds {
			for _, col := range expr.CollectColumns(c) {
				if !table.Schema.Has(col) && detSchema.Has(col) {
					sc.pre = false
				}
			}
		}
		calls = append(calls, sc)
	}

	// --- Split into pre-detector and post-detector groups. ---
	var preCalls, postCalls []*scalarCall
	for _, sc := range calls {
		if sc.pre {
			preCalls = append(preCalls, sc)
		} else {
			postCalls = append(postCalls, sc)
		}
	}

	// Pending UDF-based conjuncts become Filters as soon as every
	// expensive call they reference has been computed (Fig. 3's chain
	// interleaves Applies and selections).
	var pending []expr.Expr
	seenConj := map[string]struct{}{}
	predKeys := make([]string, 0, len(callPreds))
	for key := range callPreds {
		predKeys = append(predKeys, key)
	}
	// Filter emission order shapes the physical plan (and with it the
	// per-operator virtual-clock charges), so it must not inherit map
	// iteration order.
	sort.Strings(predKeys)
	for _, key := range predKeys {
		for _, c := range callPreds[key] {
			if _, dup := seenConj[c.String()]; dup {
				continue
			}
			seenConj[c.String()] = struct{}{}
			pending = append(pending, c)
		}
	}
	computed := map[string]string{}
	emitFilters := func(node plan.Node) plan.Node {
		var remaining []expr.Expr
		for _, c := range pending {
			rw := rewriteComputed(c, computed)
			if o.hasExpensiveScalarCall(rw) {
				remaining = append(remaining, c)
				continue
			}
			node = &plan.Filter{Input: node, Pred: rw}
		}
		pending = remaining
		return node
	}

	// --- Pre-detector scalar UDFs (specialized filters, §5.6). ---
	preGate := scanDNF
	o.rankCalls(preCalls, preGate, stats, mode)
	for _, sc := range preCalls {
		node, err = o.applyScalar(node, sc, preGate, mode, claims, &report)
		if err != nil {
			return nil, err
		}
		computed[sc.call.String()] = sc.def.OutputColumn()
		node = emitFilters(node)
		ownDNF, err := symbolic.FromExpr(expr.CombineConjuncts(sc.ownPreds))
		if err != nil {
			return nil, fmt.Errorf("optimizer: %s predicate: %w", sc.def.Name, err)
		}
		preGate = mode.reduce(preGate.And(ownDNF))
		report.PreOrder = append(report.PreOrder, sc.def.Name)
	}

	// --- Detector (table UDF / CROSS APPLY). ---
	detGate := preGate
	if stmt.Apply != nil {
		node, err = o.applyDetector(node, stmt.Apply, detGate, mode, stats, table, claims, &report)
		if err != nil {
			return nil, err
		}
		if p := expr.CombineConjuncts(detPreds); p != nil {
			node = &plan.Filter{Input: node, Pred: p}
		}
		detDNF, err := symbolic.FromExpr(expr.CombineConjuncts(detPreds))
		if err != nil {
			return nil, fmt.Errorf("optimizer: detector predicate: %w", err)
		}
		detGate = mode.reduce(detGate.And(detDNF))
	} else if len(detPreds) > 0 {
		return nil, fmt.Errorf("optimizer: predicate references detector columns but the query has no CROSS APPLY")
	}

	// --- Post-detector scalar UDFs: the Fig. 3 Apply chain in rank order. ---
	o.rankCalls(postCalls, detGate, stats, mode)
	gate := detGate
	for _, sc := range postCalls {
		node, err = o.applyScalar(node, sc, gate, mode, claims, &report)
		if err != nil {
			return nil, err
		}
		computed[sc.call.String()] = sc.def.OutputColumn()
		node = emitFilters(node)
		ownDNF, err := symbolic.FromExpr(expr.CombineConjuncts(sc.ownPreds))
		if err != nil {
			return nil, fmt.Errorf("optimizer: %s predicate: %w", sc.def.Name, err)
		}
		gate = mode.reduce(gate.And(ownDNF))
		report.Order = append(report.Order, sc.def.Name)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("optimizer: %d UDF predicates left unscheduled", len(pending))
	}

	// --- Projection / aggregation / ordering / limit. ---
	node, err = o.buildOutput(node, stmt, calls)
	if err != nil {
		return nil, err
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]plan.SortKey, len(stmt.OrderBy))
		for i, k := range stmt.OrderBy {
			if !node.Schema().Has(k.Col) {
				return nil, fmt.Errorf("optimizer: ORDER BY column %q not in output %s", k.Col, node.Schema())
			}
			keys[i] = plan.SortKey{Col: k.Col, Desc: k.Desc}
		}
		node = &plan.Sort{Input: node, Keys: keys}
	}
	if stmt.Limit >= 0 {
		node = &plan.Limit{Input: node, N: stmt.Limit}
	}
	return &Result{Plan: node, Report: report}, nil
}

// resolveScalarPhysical maps a logical scalar UDF reference to the
// cheapest healthy physical UDF satisfying the call's accuracy
// property (retry-adjusted cost; models with open breakers are passed
// over).
func (o *Optimizer) resolveScalarPhysical(call *expr.Call, def *catalog.UDF, report *Report) (*catalog.UDF, error) {
	if def.Kind == catalog.KindScalarUDF && strings.EqualFold(def.Name, call.Fn) && call.Accuracy == "" {
		return def, nil
	}
	min := vision.AccuracyLow
	if call.Accuracy != "" {
		lvl, err := vision.ParseAccuracy(call.Accuracy)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %s: %w", call.Fn, err)
		}
		min = lvl
	}
	cands := o.Cat.UDFsForLogical(def.LogicalType, min)
	if len(cands) == 0 {
		return def, nil
	}
	chosen := o.pickEval(def.LogicalType, cands, report)
	if chosen == nil {
		return nil, fmt.Errorf("optimizer: every physical UDF implementing %s is unavailable (circuit breakers open)", def.LogicalType)
	}
	return chosen, nil
}

func isAggregate(fn string) bool {
	switch strings.ToUpper(fn) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// idRange extracts the hull of the id constraint for scan pushdown.
func idRange(d symbolic.DNF, frames int64) (int64, int64) {
	lo, hi := int64(0), frames
	if d.IsFalse() {
		return 0, 0
	}
	found := false
	curLo, curHi := float64(frames), float64(0)
	loOpen, hiOpen := false, false
	for _, c := range d.Conjuncts() {
		con, ok := c.Constraint("id")
		if !ok || !con.Numeric {
			return 0, frames // some disjunct leaves id unconstrained
		}
		ivs := con.Ivs.Intervals()
		if len(ivs) == 0 {
			continue
		}
		found = true
		first, last := ivs[0], ivs[len(ivs)-1]
		if first.Lo < curLo || (first.Lo == curLo && loOpen && !first.LoOpen) {
			curLo, loOpen = first.Lo, first.LoOpen
		}
		if last.Hi > curHi || (last.Hi == curHi && hiOpen && !last.HiOpen) {
			curHi, hiOpen = last.Hi, last.HiOpen
		}
	}
	if !found {
		return lo, hi
	}
	if curLo > 0 {
		lo = int64(curLo)
		if float64(lo) < curLo || (loOpen && float64(lo) == curLo) {
			lo++ // fractional, or open integer bound (id > 100 starts at 101)
		}
	}
	if curHi < float64(frames) {
		// Closed or fractional bound includes the floor frame; an open
		// integral bound (id < 160) excludes it.
		hi = int64(curHi)
		if !(hiOpen && float64(hi) == curHi) {
			hi++
		}
		if hi > frames {
			hi = frames
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
