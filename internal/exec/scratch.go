package exec

import (
	"sync"

	"eva/internal/expr"
	"eva/internal/storage"
	"eva/internal/types"
)

// scratchPool holds the operator scratch of statements that have ended
// (DESIGN.md §13). A statement's operators draw theirs when they are
// built and Run hands it back once the pipeline stages have stopped, so
// a warm statement finds its vectors grown to the widths the one before
// it met and grows nothing. Like the BatchPool it is a sync.Pool: the
// runtime drops what sits idle across collections.
var scratchPool = sync.Pool{New: func() any { return new(stmtScratch) }}

// stmtScratch is one statement's operator scratch: the k-th apply built
// takes applies[k], and the k-th program bound with a selection vector
// borrows sels[k], so statements of one shape — an exploratory session's
// — meet each operator's scratch at the width it last grew to.
type stmtScratch struct {
	applies []*applyScratch
	taken   int             // applies handed out to this statement
	sels    [][]int         // selection vectors, progs[i] holding sels[i]
	progs   []*expr.Program // the programs borrowing them
}

// applyScratch is the apply operator's per-batch scratch. Everything is
// grown to the widest batch seen and kept — across statements, through
// scratchPool — so the probe, eval and assemble loops allocate nothing
// in steady state.
type applyScratch struct {
	decisions []rowDecision
	// pk is the batch's probe keys: Hashes[r] is the view key hash (=
	// udf.DemandHash) of row r's key — the stored one for a row a view
	// keyed on more than the id served — and the rows no view serves are
	// encoded (pk.Key).
	pk  storage.ProbeKeys
	sel []int // rows no view has served yet, in row order
	// probed is the batch's output rows as gather triples, in segments
	// each ascending in input row: one per probe pass that served rows
	// (Hits is the last probe's answer), then the evaluated rows'.
	// passes holds the segments' ends.
	probed storage.Probed
	passes []int
	ids    types.IDSet // the batch's ids, when the key is the id alone
	cur    []int       // the merge's cursor per segment

	// The gather triples: output row k is input row inRows[k] joined with
	// row srcRows[k] of srcs[k]. The st* triples are the fresh rows among
	// them, which are also staged for the store view, behind the key
	// columns of the input batch.
	inRows    []int
	srcs      []*types.Batch
	srcRows   []int
	stInRows  []int
	stSrcs    []*types.Batch
	stSrcRows []int
}

// stmt returns the statement's scratch, drawing it from the pool first.
func (c *Context) stmt() *stmtScratch {
	if c.scratch == nil {
		c.scratch = scratchPool.Get().(*stmtScratch)
	}
	return c.scratch
}

// nextApplyScratch returns the scratch of the next apply operator built.
func (c *Context) nextApplyScratch() *applyScratch {
	s := c.stmt()
	if s.taken == len(s.applies) {
		s.applies = append(s.applies, new(applyScratch))
	}
	s.taken++
	return s.applies[s.taken-1]
}

// lend gives p, a program just bound, the statement's next selection
// vector, and returns p.
func (c *Context) lend(p *expr.Program) *expr.Program {
	s := c.stmt()
	if k := len(s.progs); k < len(s.sels) {
		p.SwapSel(s.sels[k])
	} else {
		s.sels = append(s.sels, nil)
	}
	s.progs = append(s.progs, p)
	return p
}

// releaseScratch hands the statement's scratch back to the pool: the
// selection vectors from the programs that borrowed them, and every
// apply's vectors with their pointer slots cleared, so that a pooled
// scratch keeps no view chunk, batch or error alive. Run calls it last,
// once no stage can run an operator.
func (c *Context) releaseScratch() {
	s := c.scratch
	if s == nil {
		return
	}
	c.scratch = nil
	for k, p := range s.progs {
		s.sels[k] = p.SwapSel(nil)
	}
	clear(s.progs)
	s.progs = s.progs[:0]
	for _, a := range s.applies[:s.taken] {
		a.clear()
	}
	s.taken = 0
	scratchPool.Put(s)
}

// clear empties the scratch, keeping its storage, and zeroes every slot
// that holds a pointer.
func (a *applyScratch) clear() {
	clear(a.decisions[:cap(a.decisions)])
	a.pk.Drop()
	p := &a.probed
	clear(p.Srcs[:cap(p.Srcs)])
	p.Hits, p.In, p.Srcs, p.Rows, p.Covered = p.Hits[:0], p.In[:0], p.Srcs[:0], p.Rows[:0], false
	clear(a.srcs[:cap(a.srcs)])
	clear(a.stSrcs[:cap(a.stSrcs)])
	a.sel, a.passes = a.sel[:0], a.passes[:0]
	a.ids.Reset()
	a.inRows, a.srcs, a.srcRows = a.inRows[:0], a.srcs[:0], a.srcRows[:0]
	a.stInRows, a.stSrcs, a.stSrcRows = a.stInRows[:0], a.stSrcs[:0], a.stSrcRows[:0]
}
