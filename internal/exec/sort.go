package exec

import (
	"fmt"
	"sort"

	"eva/internal/costs"
	"eva/internal/plan"
	"eva/internal/simclock"
	"eva/internal/types"
)

// sortIter is the blocking Sort operator: it drains its input,
// orders rows by the sort keys (NULLs first, per the datum ordering),
// and emits one batch.
type sortIter struct {
	ctx  *Context
	in   iterator
	node *plan.Sort
	done bool
}

func (s *sortIter) next() (*types.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true

	// The sort buffer is a materialization point: every input batch
	// stays resident until the output is built, so its encoded size is
	// charged to the query's memory budget. Sort cannot degrade (it
	// must see all rows), so a failed charge aborts the query.
	var reserved int64
	all := s.ctx.getBatch(s.node.Schema())
	for {
		b, err := s.in.next()
		if err != nil {
			s.ctx.Budget.Release(reserved)
			s.ctx.putBatch(all)
			return nil, err
		}
		if b == nil {
			break
		}
		if sz := int64(b.EncodedSize()); !s.ctx.Budget.Charge(sz) {
			s.ctx.Budget.Release(reserved)
			s.ctx.putBatch(all)
			return nil, fmt.Errorf("exec: sort: %w", s.ctx.Budget.Exceeded("sort buffer", sz))
		} else {
			reserved += sz
		}
		if err := all.AppendBatch(b); err != nil {
			s.ctx.Budget.Release(reserved)
			s.ctx.putBatch(all)
			return nil, fmt.Errorf("exec: sort: %w", err)
		}
		// AppendBatch copies rows into the sort buffer, so the drained
		// input batch can go straight back to the pool.
		s.ctx.putBatch(b)
	}
	defer s.ctx.Budget.Release(reserved)
	s.ctx.Clock.ChargePerTuple(simclock.CatOther, costs.RowCost, all.Len())

	keyIdx := make([]int, len(s.node.Keys))
	for i, k := range s.node.Keys {
		keyIdx[i] = all.Schema().IndexOf(k.Col)
		if keyIdx[i] < 0 {
			err := fmt.Errorf("exec: sort key %q not in %s", k.Col, all.Schema())
			s.ctx.putBatch(all)
			return nil, err
		}
	}

	order := make([]int, all.Len())
	for i := range order {
		order[i] = i
	}
	var sortErr error
	sort.SliceStable(order, func(a, b int) bool {
		for i, idx := range keyIdx {
			da, db := all.At(order[a], idx), all.At(order[b], idx)
			if !types.Comparable(da, db) {
				if sortErr == nil {
					sortErr = fmt.Errorf("exec: sort key %q mixes incomparable kinds", s.node.Keys[i].Col)
				}
				return false
			}
			c := types.Compare(da, db)
			if c == 0 {
				continue
			}
			if s.node.Keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		s.ctx.putBatch(all)
		return nil, sortErr
	}

	out := s.ctx.getBatch(s.node.Schema())
	err := out.AppendGather(all, order, nil, nil)
	s.ctx.putBatch(all)
	if err != nil {
		s.ctx.putBatch(out)
		return nil, fmt.Errorf("exec: sort: %w", err)
	}
	return out, nil
}
