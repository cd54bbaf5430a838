package exec

import (
	"slices"
	"testing"

	"eva/internal/types"
	"eva/internal/vision"
)

// TestRunHandsBackClearedScratch: Run hands the statement's scratch back
// with its vectors kept at the widths they grew to and every pointer
// slot cleared — no view chunk, batch or program stays reachable from the
// pool — and warm statements of the same shape take it up again and
// stop growing it.
func TestRunHandsBackClearedScratch(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	if _, err := Run(ctx, evalChain(40, true)); err != nil {
		t.Fatal(err)
	}
	s := new(stmtScratch)
	var widths []int
	for run := 0; run < 3; run++ {
		ctx.scratch = s
		out, err := Run(ctx, evalChain(40, true))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatal("the chain produced no rows")
		}
		if ctx.scratch != nil || s.taken != 0 || len(s.applies) != 2 {
			t.Fatalf("run %d: scratch still held %v, %d taken, %d applies; want handed back, 0, 2",
				run, ctx.scratch != nil, s.taken, len(s.applies))
		}
		// The Project's six items each borrowed a selection vector.
		if len(s.progs) != 0 || cap(s.progs) < 6 || len(s.sels) != 6 {
			t.Fatalf("run %d: %d programs still listed, %d selection vectors; want 0 and 6", run, len(s.progs), len(s.sels))
		}
		for _, p := range s.progs[:cap(s.progs)] {
			if p != nil {
				t.Fatal("a program stays reachable from the pooled scratch")
			}
		}
		var got []int
		for _, sel := range s.sels {
			got = append(got, cap(sel))
		}
		for i, a := range s.applies {
			for _, d := range a.decisions[:cap(a.decisions)] {
				if d.err != nil {
					t.Fatalf("apply %d: a decision keeps its error", i)
				}
			}
			for _, list := range [][]*types.Batch{a.probed.Srcs, a.srcs, a.stSrcs} {
				for _, b := range list[:cap(list)] {
					if b != nil {
						t.Fatalf("apply %d: a batch stays reachable from the pooled scratch", i)
					}
				}
			}
			// One probe pass served each batch, so the triples swapped
			// places with the probe's lists: inRows holds them.
			if cap(a.inRows) == 0 || cap(a.decisions) == 0 {
				t.Fatalf("apply %d: scratch not kept", i)
			}
			got = append(got, cap(a.decisions), cap(a.sel), cap(a.probed.In), cap(a.probed.Srcs), cap(a.inRows), cap(a.srcs), cap(a.pk.Hashes))
		}
		// A statement of one batch grows the probe's lists in its first
		// run and, once they have swapped places with the triples', the
		// triples' in its second; from the third on it grows nothing.
		if run == 2 && !slices.Equal(got, widths) {
			t.Errorf("a warm statement regrew its scratch: widths %v, then %v", widths, got)
		}
		widths = got
	}
}
