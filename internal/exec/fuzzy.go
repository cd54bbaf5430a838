package exec

import (
	"math"

	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/vision"
)

// Fuzzy bounding-box reuse (§6 extension). Different physical
// detectors box the same object slightly differently, so scalar UDF
// results keyed by (bbox, id) never match exactly across models. When
// enabled, a missed exact probe falls back to the spatially nearest
// stored bbox on the same frame, within FuzzyTolerance of center
// distance. The reuse is approximate by construction — the classifiers
// themselves are tolerant of small box shifts — and is off by default.

// FuzzyTolerance is the maximum normalized center distance between two
// bounding boxes considered "the same object".
const FuzzyTolerance = 0.02

// fuzzyEntry is one stored bbox on a frame.
type fuzzyEntry struct {
	cx, cy float64
	rowIdx int
}

// fuzzyIndex maps frame id → stored bboxes, built once per view
// snapshot at iterator creation. rowIdx values index into the captured
// snapshot, which stays valid because views are append-only.
type fuzzyIndex struct {
	byFrame map[int64][]fuzzyEntry
	batch   *types.Batch
}

// buildFuzzyIndex indexes the view's rows by frame id and bbox center.
// idCol/bboxCol are positions of the key columns in the view schema.
func buildFuzzyIndex(view *storage.View, idCol, bboxCol int) *fuzzyIndex {
	batch := view.Scan()
	idx := &fuzzyIndex{byFrame: map[int64][]fuzzyEntry{}, batch: batch}
	for r := 0; r < batch.Len(); r++ {
		idD := batch.At(r, idCol)
		bboxD := batch.At(r, bboxCol)
		if idD.IsNull() || bboxD.IsNull() {
			continue
		}
		x, y, w, h, err := vision.ParseBBox(bboxD.Str())
		if err != nil {
			continue
		}
		f := idD.Int()
		idx.byFrame[f] = append(idx.byFrame[f], fuzzyEntry{cx: x + w/2, cy: y + h/2, rowIdx: r})
	}
	return idx
}

// lookup finds the stored row whose bbox center is nearest to the
// probe bbox on the same frame, if within tolerance.
func (f *fuzzyIndex) lookup(frame int64, bbox string) (int, bool) {
	entries := f.byFrame[frame]
	if len(entries) == 0 {
		return 0, false
	}
	x, y, w, h, err := vision.ParseBBox(bbox)
	if err != nil {
		return 0, false
	}
	cx, cy := x+w/2, y+h/2
	best, bestDist := -1, math.Inf(1)
	for _, e := range entries {
		d := math.Hypot(cx-e.cx, cy-e.cy)
		if d < bestDist {
			best, bestDist = e.rowIdx, d
		}
	}
	if bestDist > FuzzyTolerance {
		return 0, false
	}
	return best, true
}

// serveFuzzy is the fuzzy fallback for the rows in a.sel that no exact
// probe served: a row whose bbox lies within tolerance of a stored one
// on the same frame, in any source view, is served that stored row
// (from the index's own snapshot) and leaves a.sel. It returns the
// number of rows served. Used only for scalar UDFs; called from the
// serial probe phase.
func (a *applyIter) serveFuzzy(b *types.Batch, decisions []rowDecision) int {
	idIdx := b.Schema().IndexOf("id")
	bboxIdx := b.Schema().IndexOf("bbox")
	if idIdx < 0 || bboxIdx < 0 {
		return 0
	}
	served := 0
	for _, r := range a.sel {
		frame := b.At(r, idIdx)
		bbox := b.At(r, bboxIdx)
		if frame.IsNull() || bbox.IsNull() {
			continue
		}
		for _, fi := range a.fuzzy {
			rowIdx, ok := fi.lookup(frame.Int(), bbox.Str())
			if !ok {
				continue
			}
			d := &decisions[r]
			d.served, d.lo, d.hi = true, len(a.probed.Rows), len(a.probed.Rows)+1
			a.probed.Srcs, a.probed.Rows = append(a.probed.Srcs, fi.batch), append(a.probed.Rows, rowIdx)
			served++
			break
		}
	}
	if served > 0 {
		a.compactSel(decisions)
	}
	return served
}

// fuzzyKeyPositions locates the id and bbox columns within the key
// columns; fuzzy matching requires both.
func fuzzyKeyPositions(keyCols []string, schema types.Schema) (idCol, bboxCol int, ok bool) {
	idCol, bboxCol = -1, -1
	for _, kc := range keyCols {
		switch kc {
		case "id":
			idCol = schema.IndexOf("id")
		case "bbox":
			bboxCol = schema.IndexOf("bbox")
		}
	}
	return idCol, bboxCol, idCol >= 0 && bboxCol >= 0
}
