package expr

import (
	"fmt"
	"strings"

	"eva/internal/types"
)

// Caller evaluates the scalar functions a program calls. fn is the
// function's canonical (lower-case) name.
type Caller interface {
	CallFn(fn string, args []types.Datum) (types.Datum, error)
}

// FuncKinds reports the declared result kind of a scalar function by
// name, KindNull when it is unknown. Bind accepts nil: every call then
// has an unknown kind.
type FuncKinds func(fn string) types.Kind

// Program is an expression bound to one input schema: column
// references are ordinals, function names canonical, constant
// sub-trees folded and every node's result kind inferred, once, so
// evaluation does no name lookup and no tree interpretation per row.
// It evaluates a column at a time over a selection vector — the
// ascending row indexes still undecided — and yields exactly what a
// row-by-row Eval of the source expression yields: the same values,
// and on failure the error of the first failing row in row order.
//
// A program whose expression calls a function runs one row at a time
// instead (a selection of one row, in row order, stopping at the first
// error), so the sequence of function invocations — and with it every
// clock charge, counter, breaker outcome and injected fault — is the
// row path's.
//
// A Program owns scratch vectors and is not safe for concurrent use:
// bind one per operator instance (one per worker where rows evaluate
// concurrently). Results alias that scratch, or the batch itself, and
// are valid until the program's next call.
type Program struct {
	root  *node
	calls bool // the expression calls a function: evaluate row by row

	caller Caller
	err    error // error of the lowest failing row of this evaluation
	errRow int
	sel    []int  // the selection handed to the root
	one    [1]int // the selection of a row-at-a-time evaluation
}

type nodeOp uint8

const (
	opColumn nodeOp = iota
	opConst
	opCmp
	opAnd
	opOr
	opNot
	opIsNull
	opArith
	opCall
	opFail // evaluating the node on any row is an error (unknown column, *)
)

// Comparison loops a Cmp node may take, chosen from its operands'
// declared kinds. Every loop still guards each datum's own kind byte —
// an INTEGER column may hold floats, any column NULLs — and sends what
// the guard rejects through cmpSlow, the generic comparison.
const (
	cmpGeneric = iota
	cmpNumeric
	cmpString
)

// node is one bound expression node. Scratch lives in the node that
// fills it, so nested nodes never share a buffer.
type node struct {
	op   nodeOp
	kind types.Kind // declared result kind; KindNull when unknown
	src  Expr       // the source expression: error texts quote it

	ord   int         // opColumn
	val   types.Datum // opConst
	mask  uint8       // opCmp: the comparison outcomes that satisfy the operator (cmpMask)
	loop  uint8       // opCmp: cmpGeneric, cmpNumeric or cmpString
	arith ArithOp     // opArith
	fn    string      // opCall: canonical name
	err   error       // opFail
	l, r  *node       // operands (l alone for opNot and opIsNull)
	args  []*node     // opCall
	fixed bool        // no column, call or failing node below: foldable

	vals []types.Datum   // result vector, indexed by row
	rows []int           // opOr, opNot: a copy of the incoming selection
	keep []int           // a boolean node asked for values: the selection its truth narrows
	argv []types.Datum   // opCall: one row's arguments
	argc [][]types.Datum // opCall: the argument vectors
}

// Bind compiles e against the schema of the batches it will evaluate.
// Binding never fails: a reference to a column the schema lacks, like
// a stray *, is an error of every row that evaluates it — exactly when
// Eval reports it — so a predicate that short-circuits past it, or an
// empty input, still succeeds.
func Bind(e Expr, in types.Schema, fns FuncKinds) *Program {
	b := binder{in: in, fns: fns, nodes: make([]node, 0, countNodes(e))}
	p := &Program{}
	p.root = b.bind(e)
	p.calls = b.calls
	return p
}

// Kind returns the expression's declared result kind, KindNull when
// nothing declares it (an unknown function, a NULL literal).
func (p *Program) Kind() types.Kind { return p.root.kind }

// KindOf is Bind(e, in, fns).Kind(), for callers that plan with the
// kind and evaluate nothing.
func KindOf(e Expr, in types.Schema, fns FuncKinds) types.Kind { return Bind(e, in, fns).Kind() }

// HasCalls reports whether the expression calls a function, which
// makes its evaluation order observable (see Program).
func (p *Program) HasCalls() bool { return p.calls }

// Filter evaluates the expression as a predicate over b and returns
// the rows it holds on, ascending (NULL counts as false). The slice is
// the program's scratch.
func (p *Program) Filter(b *types.Batch, c Caller) ([]int, error) {
	p.begin(c)
	sel := p.rows(b.Len())
	if !p.calls {
		return p.truth(p.root, b, sel), p.err
	}
	w := 0
	for r := range sel {
		p.one[0] = r
		kept := p.truth(p.root, b, p.one[:1])
		if p.err != nil {
			return nil, p.err
		}
		if len(kept) == 1 {
			sel[w] = r
			w++
		}
	}
	return sel[:w], nil
}

// Eval evaluates the expression for rows [0, rows) of b and returns
// the value vector, indexed by row. On failure it returns the error of
// the first failing row and that row's index.
func (p *Program) Eval(b *types.Batch, rows int, c Caller) ([]types.Datum, int, error) {
	p.begin(c)
	if !p.calls {
		vals := p.values(p.root, b, p.rows(rows))
		return vals, p.errRow, p.err
	}
	var vals []types.Datum
	for r := 0; r < rows; r++ {
		p.one[0] = r
		vals = p.values(p.root, b, p.one[:1])
		if p.err != nil {
			return nil, r, p.err
		}
	}
	return vals, 0, nil
}

// rows returns the selection of rows [0, n): every row undecided.
func (p *Program) rows(n int) []int {
	if cap(p.sel) < n {
		p.sel = make([]int, max(n, 2*cap(p.sel)))
	}
	sel := p.sel[:n]
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// EvalRow evaluates the expression for row r of b.
func (p *Program) EvalRow(b *types.Batch, r int, c Caller) (types.Datum, error) {
	p.begin(c)
	p.one[0] = r
	vals := p.values(p.root, b, p.one[:1])
	if p.err != nil {
		return types.Null, p.err
	}
	return vals[r], nil
}

func (p *Program) begin(c Caller) {
	p.caller, p.err, p.errRow = c, nil, 0
}

// fail records that evaluating row failed with err. Only the lowest
// failing row's error survives, and of one row's errors the first
// recorded: a row leaves the selection when it fails, so that is the
// one the row path would have stopped at.
func (p *Program) fail(row int, err error) {
	if p.err == nil || row < p.errRow {
		p.err, p.errRow = err, row
	}
}

// live cuts sel to the rows before the first failing row. Nothing at
// or past it can change the outcome, so a node that hands a child a
// selection other than the one its previous child returned cuts it
// first.
func (p *Program) live(sel []int) []int {
	if p.err == nil {
		return sel
	}
	i := len(sel)
	for i > 0 && sel[i-1] >= p.errRow {
		i--
	}
	return sel[:i]
}

// truth narrows sel to the rows on which n is true. It works in place:
// what it returns is always a prefix of sel's own storage, which OR
// relies on to merge its two sides back into the slice it was handed.
func (p *Program) truth(n *node, b *types.Batch, sel []int) []int {
	if len(sel) == 0 {
		return sel
	}
	switch n.op {
	case opAnd:
		// The right side sees only the rows the left kept: the row
		// path's short-circuit, a column at a time.
		return p.truth(n.r, b, p.truth(n.l, b, sel))
	case opOr:
		// The rows the left side holds on are decided; the right side
		// is asked about the rest.
		n.rows = append(n.rows[:0], sel...)
		kept := p.truth(n.l, b, sel)
		rest := p.truth(n.r, b, subtract(p.live(n.rows), kept))
		return mergeInto(sel[:len(kept)+len(rest)], len(kept), rest)
	case opNot:
		n.rows = append(n.rows[:0], sel...)
		kept := p.truth(n.l, b, n.rows)
		return subtract(p.live(sel), kept)
	case opCmp:
		return p.truthCmp(n, b, sel)
	case opIsNull:
		vals := p.values(n.l, b, sel)
		return selectNull(vals, p.live(sel))
	default: // lint:nonexhaustive every other node yields values; its truth is evalBool's reading of them
		vals := p.values(n, b, sel)
		return p.selectTrue(n, vals, p.live(sel))
	}
}

// subtract removes from a, in place, the rows also in b; both ascend.
// lint:hotpath selection loops must not allocate per row
func subtract(a, b []int) []int {
	w, j := 0, 0
	for _, r := range a {
		if j < len(b) && b[j] == r {
			j++
			continue
		}
		a[w] = r
		w++
	}
	return a[:w]
}

// mergeInto merges the ascending dst[:k] and rest into dst, whose
// length is k+len(rest), back to front so nothing unread is
// overwritten.
// lint:hotpath selection loops must not allocate per row
func mergeInto(dst []int, k int, rest []int) []int {
	i, j := k-1, len(rest)-1
	for w := len(dst) - 1; j >= 0; w-- {
		if i >= 0 && dst[i] > rest[j] {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = rest[j]
			j--
		}
	}
	return dst
}

// lint:hotpath selection loops must not allocate per row
func selectNull(vals []types.Datum, sel []int) []int {
	w := 0
	for _, r := range sel {
		if vals[r].IsNull() {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// selectTrue reads value vector vals as a predicate, as evalBool does:
// NULL is false and any other non-boolean an error.
// lint:hotpath selection loops must not allocate per row
func (p *Program) selectTrue(n *node, vals []types.Datum, sel []int) []int {
	w := 0
	for _, r := range sel {
		switch d := &vals[r]; d.Kind() {
		case types.KindBool:
			if d.Bool() {
				sel[w] = r
				w++
			}
		case types.KindNull:
		default:
			p.failNotBool(n, r, d.Kind())
			return sel[:w]
		}
	}
	return sel[:w]
}

func (p *Program) failNotBool(n *node, row int, got types.Kind) {
	p.fail(row, fmt.Errorf("expr: %q is %s, want BOOLEAN", n.src, got))
}

// truthCmp narrows sel to the rows the comparison holds on.
func (p *Program) truthCmp(n *node, b *types.Batch, sel []int) []int {
	l := p.values(n.l, b, sel)
	sel = p.live(sel)
	if n.r.op == opConst && n.loop != cmpGeneric {
		if k, ok := n.r.val.NumericValue(); ok {
			return p.cmpNumConst(n, l, k, sel)
		}
		return p.cmpStrConst(n, l, n.r.val.Str(), sel)
	}
	r := p.values(n.r, b, sel)
	sel = p.live(sel)
	switch n.loop {
	case cmpNumeric:
		return p.cmpNum(n, l, r, sel)
	case cmpString:
		return p.cmpStr(n, l, r, sel)
	}
	return p.cmpAny(n, l, r, sel)
}

// The comparison loops. Each decides a row by one bit — less, equal or
// greater — tested against the node's mask; a datum the kind guard
// rejects gets its bit from cmpSlow.

// order3 returns the mask bit for a against b: less, greater, or equal
// — which, as in types.Compare, is also where an unordered float pair
// lands.
func order3[T float64 | string](a, b T) uint8 {
	switch {
	case a < b:
		return bitLess
	case a > b:
		return bitGreater
	}
	return bitEqual
}

// lint:hotpath comparison kernels must not allocate per row
func (p *Program) cmpNumConst(n *node, l []types.Datum, k float64, sel []int) []int {
	w := 0
	for _, r := range sel {
		var bit uint8
		if v, ok := l[r].NumericValue(); ok {
			bit = order3(v, k)
		} else if bit, ok = p.cmpSlow(n, &l[r], &n.r.val, r); !ok {
			return sel[:w]
		}
		if n.mask&bit != 0 {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// lint:hotpath comparison kernels must not allocate per row
func (p *Program) cmpStrConst(n *node, l []types.Datum, k string, sel []int) []int {
	w := 0
	for _, r := range sel {
		var bit uint8
		if v, ok := l[r].StringValue(); ok {
			bit = order3(v, k)
		} else if bit, ok = p.cmpSlow(n, &l[r], &n.r.val, r); !ok {
			return sel[:w]
		}
		if n.mask&bit != 0 {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// lint:hotpath comparison kernels must not allocate per row
func (p *Program) cmpNum(n *node, l, rv []types.Datum, sel []int) []int {
	w := 0
	for _, r := range sel {
		var bit uint8
		a, aok := l[r].NumericValue()
		if c, ok := rv[r].NumericValue(); ok && aok {
			bit = order3(a, c)
		} else if bit, ok = p.cmpSlow(n, &l[r], &rv[r], r); !ok {
			return sel[:w]
		}
		if n.mask&bit != 0 {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// lint:hotpath comparison kernels must not allocate per row
func (p *Program) cmpStr(n *node, l, rv []types.Datum, sel []int) []int {
	w := 0
	for _, r := range sel {
		var bit uint8
		a, aok := l[r].StringValue()
		if c, ok := rv[r].StringValue(); ok && aok {
			bit = order3(a, c)
		} else if bit, ok = p.cmpSlow(n, &l[r], &rv[r], r); !ok {
			return sel[:w]
		}
		if n.mask&bit != 0 {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// lint:hotpath comparison kernels must not allocate per row
func (p *Program) cmpAny(n *node, l, rv []types.Datum, sel []int) []int {
	w := 0
	for _, r := range sel {
		bit, ok := p.cmpSlow(n, &l[r], &rv[r], r)
		if !ok {
			return sel[:w]
		}
		if n.mask&bit != 0 {
			sel[w] = r
			w++
		}
	}
	return sel[:w]
}

// cmpSlow compares any two datums with Eval's rules and returns the
// row's mask bit: none when either side is NULL (the comparison is
// false whatever the operator), and not ok when the kinds are
// incomparable, which fails the row.
func (p *Program) cmpSlow(n *node, l, r *types.Datum, row int) (bit uint8, ok bool) {
	if l.IsNull() || r.IsNull() {
		return 0, true
	}
	if !types.Comparable(*l, *r) {
		p.fail(row, fmt.Errorf("expr: cannot compare %s with %s in %q", l.Kind(), r.Kind(), n.src))
		return 0, false
	}
	return 1 << (types.Compare(*l, *r) + 1), true
}

// values evaluates n on the rows of sel and returns its value vector,
// indexed by row and meaningful on the rows of sel that did not fail.
func (p *Program) values(n *node, b *types.Batch, sel []int) []types.Datum {
	if len(sel) == 0 {
		return nil
	}
	switch n.op {
	case opColumn:
		return b.Col(n.ord)
	case opConst:
		// The vector holds the constant at every index, so it is only
		// ever extended.
		if len(n.vals) < b.Len() {
			old := len(n.vals)
			n.vals = append(n.vals, make([]types.Datum, b.Len()-old)...)
			for i := old; i < len(n.vals); i++ {
				n.vals[i] = n.val
			}
		}
		return n.vals
	case opFail:
		p.fail(sel[0], n.err)
		return nil
	case opArith:
		l := p.values(n.l, b, sel)
		r := p.values(n.r, b, p.live(sel))
		return p.arith(n, l, r, n.out(b.Len()), p.live(sel))
	case opCall:
		for i, a := range n.args {
			n.argc[i] = p.values(a, b, p.live(sel))
		}
		return p.call(n, n.out(b.Len()), p.live(sel))
	default: // lint:nonexhaustive the boolean nodes: their value is the truth of each row
		n.keep = append(n.keep[:0], sel...)
		kept := p.truth(n, b, n.keep)
		return boolValues(n.out(b.Len()), p.live(sel), kept)
	}
}

// out returns the node's result vector, sized for a batch of n rows.
func (n *node) out(rows int) []types.Datum {
	if cap(n.vals) < rows {
		n.vals = make([]types.Datum, max(rows, 2*cap(n.vals)))
	}
	return n.vals[:rows]
}

// lint:hotpath arithmetic kernel must not allocate per row
func (p *Program) arith(n *node, l, r, out []types.Datum, sel []int) []types.Datum {
	for _, row := range sel {
		v, err := evalArith(n.arith, l[row], r[row])
		if err != nil {
			p.fail(row, err)
			return out
		}
		out[row] = v
	}
	return out
}

// call invokes the function once per row of sel, in row order, over
// the argument vectors in n.argc.
func (p *Program) call(n *node, out []types.Datum, sel []int) []types.Datum {
	for _, row := range sel {
		for i, vec := range n.argc {
			n.argv[i] = vec[row]
		}
		v, err := p.caller.CallFn(n.fn, n.argv)
		if err != nil {
			p.fail(row, err)
			return out
		}
		out[row] = v
	}
	return out
}

// lint:hotpath selection loops must not allocate per row
func boolValues(out []types.Datum, sel, kept []int) []types.Datum {
	no, yes := types.NewBool(false), types.NewBool(true)
	for _, r := range sel {
		out[r] = no
	}
	for _, r := range kept {
		out[r] = yes
	}
	return out
}

// binder carries one Bind call's inputs and the node slab: the tree is
// counted first and allocated once.
type binder struct {
	in    types.Schema
	fns   FuncKinds
	nodes []node
	calls bool
}

func countNodes(e Expr) int {
	switch n := e.(type) {
	case *Cmp:
		return 1 + countNodes(n.L) + countNodes(n.R)
	case *Logic:
		return 1 + countNodes(n.L) + countNodes(n.R)
	case *Arith:
		return 1 + countNodes(n.L) + countNodes(n.R)
	case *Not:
		return 1 + countNodes(n.E)
	case *IsNull:
		return 1 + countNodes(n.E)
	case *Call:
		c := 1
		for _, a := range n.Args {
			c += countNodes(a)
		}
		return c
	default: // lint:nonexhaustive leaves (Column, Const, Star) and anything unknown are one node
		return 1
	}
}

func (b *binder) bind(e Expr) *node {
	b.nodes = append(b.nodes, node{src: e})
	n := &b.nodes[len(b.nodes)-1]
	switch x := e.(type) {
	case *Column:
		if n.ord = b.in.IndexOf(x.Name); n.ord < 0 {
			n.op, n.err = opFail, fmt.Errorf("expr: unknown column %q", x.Name)
			return n
		}
		n.op, n.kind = opColumn, b.in[n.ord].Kind
		return n
	case *Const:
		n.op, n.val, n.kind, n.fixed = opConst, x.Val, x.Val.Kind(), true
		return n
	case *Cmp:
		n.op, n.kind, n.mask = opCmp, types.KindBool, cmpMask(x.Op)
		n.l, n.r = b.bind(x.L), b.bind(x.R)
		switch lk, rk := n.l.kind, n.r.kind; {
		case lk.Numeric() && rk.Numeric():
			n.loop = cmpNumeric
		case lk == types.KindString && rk == types.KindString:
			n.loop = cmpString
		}
	case *Logic:
		n.op, n.kind = opAnd, types.KindBool
		if x.Op == OpOr {
			n.op = opOr
		}
		n.l, n.r = b.bind(x.L), b.bind(x.R)
	case *Not:
		n.op, n.kind, n.l = opNot, types.KindBool, b.bind(x.E)
	case *IsNull:
		n.op, n.kind, n.l = opIsNull, types.KindBool, b.bind(x.E)
	case *Arith:
		n.op, n.arith = opArith, x.Op
		n.l, n.r = b.bind(x.L), b.bind(x.R)
		switch lk, rk := n.l.kind, n.r.kind; {
		case lk == types.KindInt && rk == types.KindInt:
			n.kind = types.KindInt
		case lk.Numeric() && rk.Numeric():
			n.kind = types.KindFloat
		}
	case *Call:
		b.calls = true
		n.op, n.fn = opCall, strings.ToLower(x.Fn)
		if b.fns != nil {
			n.kind = b.fns(n.fn)
		}
		n.args = make([]*node, len(x.Args))
		for i, a := range x.Args {
			n.args[i] = b.bind(a)
		}
		n.argv = make([]types.Datum, len(x.Args))
		n.argc = make([][]types.Datum, len(x.Args))
		return n
	case Star, *Star:
		n.op, n.err = opFail, fmt.Errorf("expr: cannot evaluate * outside an aggregate")
		return n
	default:
		n.op, n.err = opFail, fmt.Errorf("expr: cannot evaluate %T", e)
		return n
	}
	b.fold(n)
	return n
}

// fold replaces an operator node over constants by its value, computed
// by the evaluator itself on a one-row batch. A node whose evaluation
// fails stays as it is, so the error is still that of the first row to
// reach it. FALSE AND x and TRUE OR x fold too: the row path never
// evaluates x there either. src keeps the source expression, which
// error texts quote.
func (b *binder) fold(n *node) {
	n.fixed = n.l.fixed && (n.r == nil || n.r.fixed)
	if !n.fixed && (n.op == opAnd || n.op == opOr) && n.l.op == opConst && n.l.val.Kind() == types.KindBool {
		n.fixed = n.l.val.Bool() == (n.op == opOr)
	}
	if !n.fixed {
		return
	}
	one := types.NewBatch(nil)
	if err := one.AppendRow(); err != nil {
		return
	}
	p := &Program{root: n}
	v, err := p.EvalRow(one, 0, nil)
	if err != nil {
		return
	}
	*n = node{op: opConst, src: n.src, val: v, kind: n.kind, fixed: true}
}

// The three outcomes of comparing a row's operands, as mask bits: bit
// c+1 for types.Compare result c.
const (
	bitLess    uint8 = 1
	bitEqual   uint8 = 2
	bitGreater uint8 = 4
)

// cmpMask returns the outcomes that satisfy op.
func cmpMask(op CmpOp) uint8 {
	switch op {
	case OpEq:
		return bitEqual
	case OpNe:
		return bitLess | bitGreater
	case OpLt:
		return bitLess
	case OpLe:
		return bitLess | bitEqual
	case OpGt:
		return bitGreater
	case OpGe:
		return bitGreater | bitEqual
	}
	return 0
}
