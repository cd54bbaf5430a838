// Package plan defines EVA's physical query plans. The optimizer
// produces these trees; the execution engine interprets them.
//
// The reuse machinery of Fig. 4 (LEFT OUTER JOIN against the view, a
// conditional Apply guarded on missing values, and a STORE appending
// fresh results) is represented by the fused ReuseApply operator: its
// three phases are executed per input batch in exactly that order, and
// fusing them avoids materializing the NULL-marker intermediate (the
// same fusion a pipelined engine would perform).
package plan

import (
	"fmt"
	"strings"

	"eva/internal/expr"
	"eva/internal/types"
)

// Node is a physical plan operator.
//
// The implementations form a sealed set (*Scan, *Filter, *ReuseApply,
// *Project, *GroupBy, *Sort, *Limit); switches over Node must handle
// every variant.
//
// lint:exhaustive
type Node interface {
	Schema() types.Schema
	Children() []Node
	// Describe renders the operator (one line, without children).
	Describe() string
}

// Scan reads frames with id in [Lo, Hi) from a video table. The
// optimizer pushes id-range predicates into the bounds.
type Scan struct {
	Table string
	Sch   types.Schema
	Lo    int64
	Hi    int64 // exclusive; -1 means "to the end"
}

func (s *Scan) Schema() types.Schema { return s.Sch }
func (s *Scan) Children() []Node     { return nil }
func (s *Scan) Describe() string {
	return fmt.Sprintf("Scan(%s, id ∈ [%d, %d))", s.Table, s.Lo, s.Hi)
}

// Filter keeps rows satisfying the predicate.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

func (f *Filter) Schema() types.Schema { return f.Input.Schema() }
func (f *Filter) Children() []Node     { return []Node{f.Input} }
func (f *Filter) Describe() string     { return fmt.Sprintf("Filter(%s)", f.Pred) }

// ApplySource is one materialized view a ReuseApply consults, tagged
// with the physical UDF that produced it (logical UDF reuse may select
// several; §4.3).
type ApplySource struct {
	UDF      string
	ViewName string
}

// ReuseApply evaluates a UDF per input row with materialized-view
// reuse. For each row it probes Sources in order; the first view that
// has processed the row's key serves the results (the LEFT OUTER JOIN
// arm of Fig. 4). Missing keys are evaluated with the Eval UDF (the
// conditional Apply arm) and, when StoreView is set, appended to that
// view (the STORE arm).
type ReuseApply struct {
	Input Node
	// Args are the UDF argument expressions over the input schema.
	Args []expr.Expr
	// Sources are the views to consult, in preference order. Empty
	// means no reuse (No-Reuse and FunCache modes).
	Sources []ApplySource
	// Eval is the physical UDF evaluated for keys missing everywhere.
	Eval string
	// StoreView names the view fresh results are appended to; empty
	// disables materialization.
	StoreView string
	// TableUDF selects CROSS APPLY semantics (one input row expands to
	// N output rows); otherwise the UDF is scalar (exactly one value).
	TableUDF bool
	// Out lists the columns the operator appends to the input schema.
	Out types.Schema
	// KeyCols are the invocation key columns (from the UDF signature).
	KeyCols []string
	// FuzzyBBox enables the §6 extension: when an exact key probe
	// misses and the key contains a bbox, reuse the stored result of
	// the spatially nearest bbox on the same frame (within tolerance).
	// Bounding boxes from different detector models for the same
	// object are close but not identical; fuzzy matching lets
	// dependent UDF results transfer across detectors.
	FuzzyBBox bool

	sch types.Schema
}

// Schema implements Node; the output schema is input ⊕ Out.
func (a *ReuseApply) Schema() types.Schema {
	if a.sch == nil {
		a.sch = a.Input.Schema().Concat(a.Out)
	}
	return a.sch
}

func (a *ReuseApply) Children() []Node { return []Node{a.Input} }

func (a *ReuseApply) Describe() string {
	kind := "ScalarApply"
	if a.TableUDF {
		kind = "CrossApply"
	}
	var srcs []string
	for _, s := range a.Sources {
		srcs = append(srcs, s.ViewName)
	}
	reuse := "no-reuse"
	if len(srcs) > 0 {
		reuse = "views=[" + strings.Join(srcs, ",") + "]"
	}
	store := ""
	if a.StoreView != "" {
		store = " store=" + a.StoreView
	}
	return fmt.Sprintf("%s(%s, %s%s, key=%v)", kind, a.Eval, reuse, store, a.KeyCols)
}

// ProjItem is one projection output column. Kind may be set by the
// optimizer when it knows the expression's type (it can see the
// declared output kind of a called UDF); KindNull means "infer
// structurally" (expr.Bind's inferred kind).
type ProjItem struct {
	Name string
	E    expr.Expr
	Kind types.Kind
}

// Project evaluates expressions into named output columns.
type Project struct {
	Input Node
	Items []ProjItem
	sch   types.Schema
}

// Schema implements Node.
func (p *Project) Schema() types.Schema {
	if p.sch == nil {
		for _, it := range p.Items {
			kind := it.Kind
			if kind == types.KindNull {
				kind = expr.KindOf(it.E, p.Input.Schema(), nil)
			}
			if kind == types.KindNull {
				// Nothing declares the kind: a call is taken for TEXT
				// (the optimizer refines it when it knows the UDF),
				// anything else for FLOAT.
				kind = types.KindFloat
				if _, ok := it.E.(*expr.Call); ok {
					kind = types.KindString
				}
			}
			p.sch = append(p.sch, types.Column{Name: it.Name, Kind: kind})
		}
	}
	return p.sch
}

func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) Describe() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = fmt.Sprintf("%s AS %s", it.E, it.Name)
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// AggKind enumerates aggregate functions.
//
// lint:exhaustive
type AggKind int

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Agg is one aggregate output. ArgKind may be set by the optimizer
// when it knows the argument's type (it can see the declared output
// kind of a called UDF); KindNull means "infer structurally".
type Agg struct {
	Kind    AggKind
	Arg     expr.Expr // nil for COUNT(*)
	Name    string
	ArgKind types.Kind
}

// InputKind returns the declared kind of the aggregate's argument over
// the input schema in: ArgKind when set, else what the expression's
// structure declares; KindNull when neither does (and for COUNT(*)).
func (a Agg) InputKind(in types.Schema) types.Kind {
	if a.ArgKind != types.KindNull || a.Arg == nil {
		return a.ArgKind
	}
	return expr.KindOf(a.Arg, in, nil)
}

// GroupBy groups rows by key columns and computes aggregates. With no
// keys it computes a single global aggregate row.
type GroupBy struct {
	Input Node
	Keys  []string
	Aggs  []Agg
	sch   types.Schema
}

// Schema implements Node.
func (g *GroupBy) Schema() types.Schema {
	if g.sch == nil {
		in := g.Input.Schema()
		for _, k := range g.Keys {
			g.sch = append(g.sch, types.Column{Name: k, Kind: in.KindOf(k)})
		}
		for _, a := range g.Aggs {
			kind := types.KindFloat // SUM and AVG
			switch a.Kind {
			case AggCount:
				kind = types.KindInt
			case AggMin, AggMax:
				// MIN and MAX return one of their argument's values.
				if k := a.InputKind(in); k != types.KindNull {
					kind = k
				}
			case AggSum, AggAvg:
			}
			g.sch = append(g.sch, types.Column{Name: a.Name, Kind: kind})
		}
	}
	return g.sch
}

func (g *GroupBy) Children() []Node { return []Node{g.Input} }
func (g *GroupBy) Describe() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		arg := "*"
		if a.Arg != nil {
			arg = a.Arg.String()
		}
		parts[i] = fmt.Sprintf("%s(%s)", a.Kind, arg)
	}
	return fmt.Sprintf("GroupBy(keys=%v, aggs=[%s])", g.Keys, strings.Join(parts, ", "))
}

// SortKey is one ordering column.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort orders rows by the keys (a blocking operator).
type Sort struct {
	Input Node
	Keys  []SortKey
}

func (s *Sort) Schema() types.Schema { return s.Input.Schema() }
func (s *Sort) Children() []Node     { return []Node{s.Input} }
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		parts[i] = k.Col + " " + dir
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Limit caps the number of output rows.
type Limit struct {
	Input Node
	N     int64
}

func (l *Limit) Schema() types.Schema { return l.Input.Schema() }
func (l *Limit) Children() []Node     { return []Node{l.Input} }
func (l *Limit) Describe() string     { return fmt.Sprintf("Limit(%d)", l.N) }

// Explain renders the plan tree with indentation.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(node Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.Describe())
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
