package plan

import (
	"strings"

	"eva/internal/expr"
	"eva/internal/types"
)

// Fuse finishes an optimized plan for late materialization (Abadi et
// al., "Materialization Strategies in a Column-Oriented DBMS", ICDE
// 2007): it narrows every ReuseApply to the input (Pass) and output
// (Emit) columns something above it reads — the projection, Where
// predicates, sort and group keys, and later applies' arguments, key
// columns and carried columns. Nodes are updated in place; Fuse returns
// the root. It runs once, on a plan whose applies carry every column.
func Fuse(root Node) Node {
	need := make([]bool, len(root.Schema()))
	for i := range need {
		need[i] = true // the result: every column of the root
	}
	narrow(root, need)
	return root
}

// narrow sets the carried columns of every ReuseApply in the subtree
// rooted at n. need[i] reports whether the operators above n read
// column i of n.Schema(); its storage is reused for the subtree below,
// so the pass allocates only the carried-column lists.
func narrow(n Node, need []bool) {
	switch node := n.(type) {
	case *Scan:
	case *ReuseApply:
		in := node.Input.Schema()
		node.Pass, node.Emit = carried(need, in, node.Out)
		node.sch = nil
		need = need[:len(in)]
		for _, w := range node.Where {
			markExpr(need, in, w)
		}
		for _, arg := range node.Args {
			markExpr(need, in, arg)
		}
		for _, k := range node.KeyCols {
			markName(need, in, k)
		}
		for i, c := range in {
			for _, o := range node.Out {
				need[i] = need[i] || shadows(c.Name, o.Name)
			}
		}
		narrow(node.Input, need)
	case *Project:
		in := node.Input.Schema()
		need = none(need, len(in))
		for _, it := range node.Items {
			markExpr(need, in, it.E)
		}
		narrow(node.Input, need)
	case *GroupBy:
		in := node.Input.Schema()
		need = none(need, len(in))
		for _, k := range node.Keys {
			markName(need, in, k)
		}
		for _, agg := range node.Aggs {
			markExpr(need, in, agg.Arg)
		}
		narrow(node.Input, need)
	case *Sort:
		for _, k := range node.Keys {
			markName(need, node.Schema(), k.Col)
		}
		narrow(node.Input, need)
	case *Limit:
		narrow(node.Input, need)
	}
}

// carried lists the columns of in ⊕ out that need marks, as a Pass
// and an Emit list cut from one backing array; both are non-nil.
func carried(need []bool, in, out types.Schema) (pass, emit []string) {
	p, e := 0, 0
	for i, live := range need {
		switch {
		case !live:
		case i < len(in):
			p++
		default:
			e++
		}
	}
	names := make([]string, 0, p+e)
	for i, c := range in {
		if need[i] {
			names = append(names, c.Name)
		}
	}
	for j, c := range out {
		if need[len(in)+j] {
			names = append(names, c.Name)
		}
	}
	return names[:p:p], names[p:]
}

// none returns need resized to n columns, none of them marked.
func none(need []bool, n int) []bool {
	if cap(need) < n {
		return make([]bool, n)
	}
	need = need[:n]
	clear(need)
	return need
}

// markExpr marks the columns of sch that e reads.
func markExpr(need []bool, sch types.Schema, e expr.Expr) {
	expr.Walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.Column); ok {
			markName(need, sch, c.Name)
		}
	})
}

// markName marks the named column of sch, if it has one.
func markName(need []bool, sch types.Schema, name string) {
	if i := sch.IndexOf(name); i >= 0 {
		need[i] = true
	}
}

// shadows reports whether an input column named col takes part in
// naming an output column named out: it is out itself or out with the
// "_r" suffixes types.Schema.Concat appends to tell the two apart.
// Carrying such a column keeps the output column's name stable.
func shadows(col, out string) bool {
	if len(col) < len(out) || !strings.EqualFold(col[:len(out)], out) {
		return false
	}
	for rest := col[len(out):]; rest != ""; rest = rest[2:] {
		if len(rest) < 2 || !strings.EqualFold(rest[:2], "_r") {
			return false
		}
	}
	return true
}
