package exec

import (
	"fmt"
	"testing"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/types"
	"eva/internal/vision"
)

// evalChain is a detector feeding a classifier, both evaluating and —
// with views — both materializing: every batch fills per-chunk output
// batches, gathers them into the result and into the view staging, and
// recycles them. Without views every run evaluates (or asks the
// FunCache).
func evalChain(frames int64, views bool) plan.Node {
	det := &plan.ReuseApply{
		Input:     scan(0, frames),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
	ct, _ := catalog.New().UDF("CarType")
	cls := &plan.ReuseApply{
		Input:     det,
		Args:      []expr.Expr{colx("frame"), colx("bbox")},
		Sources:   []plan.ApplySource{{UDF: "CarType", ViewName: "ct_view"}},
		Eval:      "CarType",
		StoreView: "ct_view",
		Out:       ct.Outputs,
		KeyCols:   []string{"id", "bbox"},
	}
	if !views {
		det.Sources, det.StoreView, cls.Sources, cls.StoreView = nil, "", nil, ""
	}
	return &plan.Project{Input: cls, Items: []plan.ProjItem{
		{Name: "id", E: colx("id"), Kind: types.KindInt},
		{Name: "label", E: colx("label"), Kind: types.KindString},
		{Name: "bbox", E: colx("bbox"), Kind: types.KindString},
		{Name: "score", E: colx("score"), Kind: types.KindFloat},
		{Name: "area", E: colx("area"), Kind: types.KindFloat},
		{Name: "cartype_out", E: colx("cartype_out"), Kind: types.KindString},
	}}
}

// evalChainDigest runs the chain cold and then again, and renders what a
// client and the next query can see: both results, and both views.
func evalChainDigest(t *testing.T, ctx *Context, views bool) string {
	t.Helper()
	digest := ""
	for run := 0; run < 2; run++ {
		out, err := Run(ctx, evalChain(40, views))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatal("no detections on 40 dense frames")
		}
		digest += FormatBatch(out)
	}
	if !views {
		return digest
	}
	for _, name := range []string{"det_view", "ct_view"} {
		digest += fmt.Sprintf("%s\n%s", name, FormatBatch(ctx.Store.View(name).Scan()))
	}
	return digest
}

// TestEvalOutputBatchesRecycleSafely is the pool-safety check of the
// batch evaluation: the per-chunk detector output batches are pooled and
// recycled at the end of every apply batch, so with poisoning on — every
// recycled slot scribbled with a datum no accessor accepts — nothing that
// outlives the batch may still point into one: not the result rows, not
// the rows staged for (and then appended to) the store view, not a
// FunCache entry served on the second run (the FunCache cells keep no
// views, as that mode does not, so the second run is served by the
// cache). Each cell must render exactly what an unpooled, serial run
// renders.
func TestEvalOutputBatchesRecycleSafely(t *testing.T) {
	for _, funCache := range []bool{false, true} {
		oracle := testCtx(t, vision.MediumUADetrac)
		oracle.Runtime.SetFunCache(funCache)
		want := evalChainDigest(t, oracle, !funCache)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("funcache=%v/workers=%d", funCache, workers), func(t *testing.T) {
				ctx := testCtx(t, vision.MediumUADetrac)
				ctx.Runtime.SetFunCache(funCache)
				ctx.Workers = workers
				ctx.BatchSize = 16
				ctx.Pool = types.NewBatchPool()
				ctx.Pool.SetPoison(true)
				if got := evalChainDigest(t, ctx, !funCache); got != want {
					t.Errorf("pooled, poisoned run differs from the unpooled one:\n%s\nwant:\n%s", got, want)
				}
				if st := ctx.Pool.Stats(); st.Hits == 0 || st.Puts == 0 {
					t.Errorf("pool not engaged: %+v", st)
				}
			})
		}
	}
}
