package vbench

import (
	"fmt"
	"sort"
	"strings"

	"eva"
	"eva/internal/expr"
	"eva/internal/parser"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/vision"
)

// --- Fig. 7: symbolic predicate reduction vs QM-style simplify ---

// fig7UDFs are the candidate UDFs whose predicate analyses Fig. 7 plots.
var fig7UDFs = []string{"fasterrcnnresnet50", "cartype", "colordet"}

// Fig7Point is one derived-predicate measurement.
type Fig7Point struct {
	UDF            string
	Step           int // query index in the workload
	Kind           string
	EVAAtoms       int
	SimplifyAtoms  int
	SimplifyGaveUp bool
}

// ExpFig7 replays VBENCH-HIGH's predicate analyses through both EVA's
// reducer (Algorithm 1) and the opaque-atom Quine–McCluskey `simplify`
// baseline, counting atomic formulae of the intersection, difference,
// and union predicates.
func ExpFig7(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	points, err := Fig7Points(HighWorkload(ds))
	if err != nil {
		return Report{}, err
	}
	agg := map[string]*struct {
		evaMax, simMax   int
		evaLast, simLast int
		n                int
	}{}
	for _, p := range points {
		a, ok := agg[p.UDF]
		if !ok {
			a = &struct {
				evaMax, simMax   int
				evaLast, simLast int
				n                int
			}{}
			agg[p.UDF] = a
		}
		if p.EVAAtoms > a.evaMax {
			a.evaMax = p.EVAAtoms
		}
		if p.SimplifyAtoms > a.simMax {
			a.simMax = p.SimplifyAtoms
		}
		a.evaLast, a.simLast = p.EVAAtoms, p.SimplifyAtoms
		a.n++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s | %9s | %9s | %10s | %10s\n", "UDF", "EVA max", "EVA last", "simplify max", "simplify last")
	sb.WriteString(strings.Repeat("-", 74) + "\n")
	for _, u := range fig7UDFs {
		a := agg[u]
		if a == nil {
			continue
		}
		fmt.Fprintf(&sb, "%-22s | %9d | %9d | %12d | %13d\n", u, a.evaMax, a.evaLast, a.simMax, a.simLast)
	}
	return Report{Text: sb.String()}, nil
}

// Fig7Points computes the raw Fig. 7 series for a workload.
func Fig7Points(w Workload) ([]Fig7Point, error) {
	m, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, w)
	if err != nil {
		return nil, err
	}

	// Baseline state: per UDF, the aggregated predicate as an
	// expression tree (nil = FALSE) plus the atom→expr table needed to
	// rebuild expressions from QM implicants.
	aggs := map[string]expr.Expr{}
	atomExprs := map[string]expr.Expr{}

	var points []Fig7Point
	for qi, q := range w.Queries {
		stmt, err := parser.Parse(q.SQL)
		if err != nil {
			return nil, err
		}
		sel := stmt.(*parser.SelectStmt)
		base, own := splitFig7Predicates(sel.Where)
		registerAtoms(sel.Where, atomExprs)

		// Detector gate: the base predicate; scalar gates follow the
		// EVA run's chosen order.
		order := []string{"fasterrcnnresnet50"}
		for _, u := range m.Queries[qi].Order {
			order = append(order, strings.ToLower(u))
		}
		gate := base
		for _, u := range order {
			gateExpr := expr.CombineConjuncts(gate)
			evaAtoms := evaAtomsFor(m.Queries[qi].Preds, u)

			agg := aggs[u]
			inter, diff, union := deriveExprs(agg, gateExpr)
			simInter, err := qmAtoms(inter)
			if err != nil {
				return nil, err
			}
			simDiff, err := qmAtoms(diff)
			if err != nil {
				return nil, err
			}
			simUnionRes, err := symbolic.QMSimplify(union)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Fig7Point{UDF: u, Step: qi, Kind: "inter", EVAAtoms: evaAtoms.inter, SimplifyAtoms: simInter},
				Fig7Point{UDF: u, Step: qi, Kind: "diff", EVAAtoms: evaAtoms.diff, SimplifyAtoms: simDiff},
				Fig7Point{UDF: u, Step: qi, Kind: "union", EVAAtoms: evaAtoms.union, SimplifyAtoms: simUnionRes.AtomCount, SimplifyGaveUp: simUnionRes.GaveUp},
			)
			// The baseline carries forward whatever `simplify` produced
			// (rebuilt from its implicants); once it fails to reduce, the
			// formula keeps growing — the behaviour §5.4 describes.
			aggs[u] = exprFromQM(simUnionRes, union, atomExprs)

			gate = append(gate, own[u]...)
		}
	}
	return points, nil
}

type atomTriple struct{ inter, diff, union int }

func evaAtomsFor(preds map[string]eva.PredInfo, udfName string) atomTriple {
	for sig, info := range preds {
		base := sig
		if i := strings.Index(base, "."); i >= 0 {
			base = base[i+1:] // strip the table qualifier
		}
		if strings.HasPrefix(base, udfName+"[") {
			return atomTriple{inter: info.InterAtoms, diff: info.DiffAtoms, union: info.UnionAtoms}
		}
	}
	return atomTriple{}
}

// splitFig7Predicates separates non-UDF conjuncts (the base gate) from
// the conjuncts owned by each expensive UDF.
func splitFig7Predicates(where expr.Expr) (base []expr.Expr, own map[string][]expr.Expr) {
	own = map[string][]expr.Expr{}
	if where == nil {
		return nil, own
	}
	for _, c := range expr.SplitConjuncts(where) {
		assigned := false
		for _, call := range expr.CollectCalls(c) {
			fn := strings.ToLower(call.Fn)
			if fn == "cartype" || fn == "colordet" || fn == "license" || fn == "vehiclefilter" {
				own[fn] = append(own[fn], c)
				assigned = true
				break
			}
		}
		if !assigned {
			base = append(base, c)
		}
	}
	return base, own
}

func registerAtoms(e expr.Expr, into map[string]expr.Expr) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *expr.Logic:
		registerAtoms(n.L, into)
		registerAtoms(n.R, into)
	case *expr.Not:
		registerAtoms(n.E, into)
	default: // lint:nonexhaustive every non-connective node is an opaque atom
		into[e.String()] = e
	}
}

func deriveExprs(agg, gate expr.Expr) (inter, diff, union expr.Expr) {
	if gate == nil {
		gate = expr.NewConst(trueDatum())
	}
	if agg == nil {
		// p_u = FALSE: inter = FALSE, diff = q, union = q.
		return nil, gate, gate
	}
	return expr.NewAnd(agg, gate), expr.NewAnd(expr.NewNot(agg), gate), expr.NewOr(agg, gate)
}

func qmAtoms(e expr.Expr) (int, error) {
	if e == nil {
		return 0, nil
	}
	res, err := symbolic.QMSimplify(e)
	if err != nil {
		return 0, err
	}
	return res.AtomCount, nil
}

// exprFromQM rebuilds an expression from QM implicants; when the
// minimizer gave up, the raw formula is carried forward unsimplified.
func exprFromQM(res symbolic.QMResult, raw expr.Expr, atoms map[string]expr.Expr) expr.Expr {
	if res.GaveUp {
		return raw
	}
	var union expr.Expr
	for _, imp := range res.Implicants {
		var conj expr.Expr
		idxs := make([]int, 0, len(imp))
		for i := range imp {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			atom := atoms[res.Atoms[i]]
			if atom == nil {
				atom = expr.NewColumn(res.Atoms[i]) // opaque placeholder
			}
			var lit expr.Expr = atom
			if !imp[i] {
				lit = expr.NewNot(atom)
			}
			if conj == nil {
				conj = lit
			} else {
				conj = expr.NewAnd(conj, lit)
			}
		}
		if conj == nil {
			conj = expr.NewConst(trueDatum()) // tautology implicant
		}
		if union == nil {
			union = conj
		} else {
			union = expr.NewOr(union, conj)
		}
	}
	return union
}

// --- Fig. 8: impact of query order ---

// ExpFig8 runs the four VBENCH-HIGH permutations under HashStash and
// EVA and reports the view-convergence series for the last permutation.
func ExpFig8(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	base := HighWorkload(ds)
	var sb strings.Builder
	fmt.Fprintf(&sb, "(a) workload execution time per permutation (s)\n")
	fmt.Fprintf(&sb, "%-6s | %-10s | %-10s | %s\n", "Perm", "HashStash", "EVA", "EVA gain")
	sb.WriteString(strings.Repeat("-", 46) + "\n")
	var lastEVA *RunMetrics
	for i, perm := range Permutations {
		w, err := Permute(base, perm)
		if err != nil {
			return Report{}, err
		}
		hs, err := RunWorkload(eva.Config{Mode: eva.ModeHashStash}, w)
		if err != nil {
			return Report{}, err
		}
		ev, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, w)
		if err != nil {
			return Report{}, err
		}
		lastEVA = ev
		fmt.Fprintf(&sb, "%-6d | %10.0f | %10.0f | %.2fx\n", i+1,
			hs.SimTotal.Seconds(), ev.SimTotal.Seconds(), hs.SimTotal.Seconds()/ev.SimTotal.Seconds())
	}
	sb.WriteString("\n(b) materialized-result convergence, permutation 4 (% of final rows)\n")
	final := lastEVA.Queries[len(lastEVA.Queries)-1].ViewRows
	viewNames := make([]string, 0, len(final))
	for v := range final {
		viewNames = append(viewNames, v)
	}
	sort.Strings(viewNames)
	fmt.Fprintf(&sb, "%-14s", "Query")
	for _, v := range viewNames {
		fmt.Fprintf(&sb, " | %-24s", strings.TrimPrefix(v, "udf_"))
	}
	sb.WriteString("\n")
	for _, q := range lastEVA.Queries {
		fmt.Fprintf(&sb, "%-14s", q.Label)
		for _, v := range viewNames {
			pct := 0.0
			if final[v] > 0 {
				pct = 100 * float64(q.ViewRows[v]) / float64(final[v])
			}
			fmt.Fprintf(&sb, " | %22.1f%%", pct)
		}
		sb.WriteString("\n")
	}
	return Report{Text: sb.String()}, nil
}

// --- Fig. 9: materialization-aware predicate reordering ---

// Fig9Row is one multi-UDF query's comparison.
type Fig9Row struct {
	Query     string
	Canonical float64 // seconds
	MatAware  float64
	Speedup   float64
	SameOrder bool
}

// Fig9Rows runs the permutations under canonical and
// materialization-aware ranking and reports every multi-UDF query.
func Fig9Rows(cfg ExpConfig) ([]Fig9Row, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	base := HighWorkload(ds)
	var rows []Fig9Row
	for pi, perm := range Permutations {
		w, err := Permute(base, perm)
		if err != nil {
			return nil, err
		}
		canon, err := RunWorkload(eva.Config{Mode: eva.ModeEVA, CanonicalRanking: true}, w)
		if err != nil {
			return nil, err
		}
		aware, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, w)
		if err != nil {
			return nil, err
		}
		for qi := range w.Queries {
			if len(aware.Queries[qi].Order) < 2 {
				continue
			}
			c := canon.Queries[qi].Sim.Seconds()
			a := aware.Queries[qi].Sim.Seconds()
			same := strings.Join(canon.Queries[qi].Order, ",") == strings.Join(aware.Queries[qi].Order, ",")
			sp := 0.0
			if a > 0 {
				sp = c / a
			}
			rows = append(rows, Fig9Row{
				Query:     fmt.Sprintf("Q%d", pi*len(w.Queries)+qi+1),
				Canonical: c, MatAware: a, Speedup: sp, SameOrder: same,
			})
		}
	}
	return rows, nil
}

// ExpFig9 formats the reordering comparison.
func ExpFig9(cfg ExpConfig) (Report, error) {
	rows, err := Fig9Rows(cfg)
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s | %-12s | %-12s | %-8s | %s\n", "Query", "Canonical(s)", "Mat-aware(s)", "Speedup", "Same order?")
	sb.WriteString(strings.Repeat("-", 60) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s | %12.1f | %12.1f | %7.2fx | %v\n", r.Query, r.Canonical, r.MatAware, r.Speedup, r.SameOrder)
	}
	return Report{Text: sb.String()}, nil
}

// --- Fig. 10: logical UDF reuse ---

// ExpFig10 compares Algorithm 2 against the Min-Cost baselines on the
// logical workload.
func ExpFig10(cfg ExpConfig) (Report, error) {
	ds := cfg.scale(vision.MediumUADetrac)
	wl := LogicalWorkload(ds)
	noreuse, err := RunWorkload(eva.Config{Mode: eva.ModeNoReuse, MinCostLogical: true}, wl)
	if err != nil {
		return Report{}, err
	}
	mincost, err := RunWorkload(eva.Config{Mode: eva.ModeEVA, MinCostLogical: true}, wl)
	if err != nil {
		return Report{}, err
	}
	evaRun, err := RunWorkload(eva.Config{Mode: eva.ModeEVA}, wl)
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s | %-16s | %-10s | %-8s | %s\n", "Query (s)", "MinCost-NoReuse", "MinCost", "EVA", "EVA vs MinCost")
	sb.WriteString(strings.Repeat("-", 70) + "\n")
	for i := range wl.Queries {
		nr := noreuse.Queries[i].Sim.Seconds()
		mc := mincost.Queries[i].Sim.Seconds()
		ev := evaRun.Queries[i].Sim.Seconds()
		ratio := 0.0
		if ev > 0 {
			ratio = mc / ev
		}
		fmt.Fprintf(&sb, "%-14s | %16.1f | %10.1f | %8.1f | %.2fx\n", wl.Queries[i].Label, nr, mc, ev, ratio)
	}
	return Report{Text: sb.String()}, nil
}

func trueDatum() types.Datum { return types.NewBool(true) }
