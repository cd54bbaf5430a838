package eva

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"eva/internal/types"
)

// Generated sessions: the testdata scripts are a fixed handful of
// refinement flows, so the matrices also run seeded exploratory
// sessions drawn from the reuse-relevant part of the grammar —
// physical and logical detectors, id windows that overlap and nest,
// categorical and range predicates on detector outputs, scalar UDFs in
// WHERE and in the select list, aggregates with and without GROUP BY,
// ORDER BY and LIMIT. Every session must be invisible to reuse in four
// ways at once: worker-count invariance of the full digest, EVA ≡
// FunCache ≡ no-reuse answers statement by statement, the same answers
// with the queries in reverse order, and System.Exec ≡ a lone Session.

// genSession draws a seeded session: a LOAD and n SELECTs over roughly
// the first 300 frames of medium-ua-detrac, where detector windows overlap
// often enough for reuse to matter. bound writes a query's id window
// [lo, hi) as a predicate; nil writes id >= lo AND id < hi.
func genSession(seed uint64, n int, bound func(r *rand.Rand, lo, hi int) string) []string {
	r := rand.New(rand.NewPCG(seed, 0x5e55))
	pick := func(xs ...string) string { return xs[r.IntN(len(xs))] }
	stmts := []string{"LOAD VIDEO 'medium-ua-detrac' INTO video"}
	for range n {
		detector := pick("FasterRCNNResnet50(frame)", "YoloTiny(frame)", "FasterRCNNResnet101(frame)",
			"ObjectDetector(frame) ACCURACY 'LOW'", "ObjectDetector(frame) ACCURACY 'HIGH'")
		lo := r.IntN(200)
		hi := lo + 10 + r.IntN(100)
		where := []string{fmt.Sprintf("id >= %d AND id < %d", lo, hi)}
		if bound != nil {
			where[0] = bound(r, lo, hi)
		}
		if r.IntN(2) == 0 {
			where = append(where, "label = '"+pick("car", "bus", "truck")+"'")
		}
		if r.IntN(3) == 0 {
			where = append(where, fmt.Sprintf("area > 0.0%d", r.IntN(10)))
		}
		if r.IntN(2) == 0 {
			where = append(where, "CarType(frame, bbox) = '"+pick("Nissan", "Toyota", "Ford", "Honda", "BMW")+"'")
		}
		if r.IntN(3) == 0 {
			where = append(where, "ColorDet(frame, bbox) = '"+pick("Gray", "Black", "White", "Red", "Blue")+"'")
		}
		var items, tail string
		switch r.IntN(6) {
		case 0:
			items = "id, label, bbox"
		case 1:
			items, tail = "id, area", " ORDER BY area DESC, id ASC LIMIT "+fmt.Sprint(1+r.IntN(8))
		case 2:
			items = "id, label, ColorDet(frame, bbox) AS color"
		case 3:
			items = "COUNT(*) AS n, MIN(area) AS smallest, MAX(label) AS last_label"
		case 4:
			items, tail = "id, COUNT(*) AS n, AVG(area) AS mean", " GROUP BY id"
		default:
			items, tail = "id, SUM(Area(bbox)) AS covered", " GROUP BY id ORDER BY covered DESC LIMIT 5"
		}
		stmts = append(stmts, fmt.Sprintf("SELECT %s FROM video CROSS APPLY %s WHERE %s%s",
			items, detector, strings.Join(where, " AND "), tail))
	}
	return stmts
}

// anyIDBound writes the id window [lo, hi) in one of the shapes a user
// may: a lower and an upper bound, each by a strict or an inclusive
// operator over an integral or a fractional constant, or — one time in
// six — a single frame by equality; the column on either side of each
// comparison.
func anyIDBound(r *rand.Rand, lo, hi int) string {
	cmp := func(op string, k float64) string {
		if r.IntN(2) == 0 {
			return fmt.Sprintf("id %s %g", op, k)
		}
		mirrored := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
		return fmt.Sprintf("%g %s id", k, mirrored)
	}
	if r.IntN(6) == 0 {
		return cmp("=", float64(lo))
	}
	var lower string
	switch r.IntN(3) {
	case 0:
		lower = cmp(">=", float64(lo))
	case 1:
		lower = cmp(">", float64(max(lo, 1)-1)) // id > 0 starts at frame 1
	default:
		lower = cmp(">", float64(lo)-0.5)
	}
	var upper string
	switch r.IntN(4) {
	case 0:
		upper = cmp("<", float64(hi))
	case 1:
		upper = cmp("<=", float64(hi-1))
	case 2:
		upper = cmp("<", float64(hi)-0.5)
	default:
		upper = cmp("<=", float64(hi)-0.5)
	}
	return lower + " AND " + upper
}

// logical reports whether a query applies a logical detector, which any
// model at least as accurate may serve (§4.3): which one depends on the
// views that exist, so such a query's rows may differ across modes and
// orders.
func logical(q string) bool { return strings.Contains(q, "ObjectDetector") }

// answersEach runs each statement through x and returns its answer.
func answersEach(t *testing.T, x execer, stmts []string) []string {
	t.Helper()
	out := make([]string, len(stmts))
	for i, q := range stmts {
		out[i] = answersOf(t, x, q)
	}
	return out
}

// TestGeneratedSessions runs twelve seeded sessions (four under
// -short) through every reuse-invisibility check at once: eleven of
// eight queries and the twelfth of thirty, long enough for the
// aggregated predicates to grow past what the testdata scripts reach.
// (Longer sessions are affordable only once planning is polynomial in
// the predicates' size: ROADMAP item 1.)
func TestGeneratedSessions(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		n := 8
		if seed%12 == 0 {
			n = 30
		}
		stmts := genSession(seed, n, nil)
		src := strings.Join(stmts, ";\n") + ";"
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			matrix(t, script{src: src}.run(schedule{}), Config{Workers: 1}, atWorkers(Config{}, "", 8))

			want := answersEach(t, openAt(t, Config{Mode: ModeNoReuse}), stmts)
			for _, mode := range []SystemMode{ModeEVA, ModeFunCache} {
				got := answersEach(t, openAt(t, Config{Mode: mode}), stmts)
				for i := range stmts {
					if logical(stmts[i]) {
						continue
					}
					same(t, fmt.Sprintf("%s query %d against no-reuse", mode, i), want[i], got[i])
				}
			}
			// The LOAD stays first; the queries run last to first.
			reversed := append(stmts[:1:1], stmts[1:]...)
			slices.Reverse(reversed[1:])
			got := answersEach(t, openAt(t, Config{}), reversed)
			for i := 1; i < len(stmts); i++ {
				if logical(stmts[i]) {
					continue
				}
				same(t, fmt.Sprintf("query %d run in reverse order against no-reuse", i), want[i], got[len(stmts)-i])
			}

			root, _ := runStatements(t, openAt(t, Config{}), src, everything)
			lone, _ := runStatements(t, openAt(t, Config{}).NewSession(), src, everything)
			same(t, "lone session against System.Exec", root, lone)
		})
	}
}

// TestSelectionPlacementNoREC is a NoREC oracle (non-optimizing
// reference engine construction, Rigger and Su, ESEC/FSE 2020) for
// where the optimizer puts each selection: the scan's id range and the
// bounds it drops, its residual Where, the detector's and each UDF
// apply's Where. A generated query that is not logical and has no
// aggregate or LIMIT must return exactly as many rows as the same
// query without its WHERE returns rows on which the WHERE's predicate,
// selected as a column, is TRUE — a form whose predicate nothing
// pushes down. The id windows take every comparison shape
// (anyIDBound). Eight seeded sessions of eight queries (two under
// -short), each run in one EVA-mode System, so the unfiltered forms
// reuse what the filtered ones stored and the reverse.
func TestSelectionPlacementNoREC(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	checked := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		stmts := genSession(seed, 8, anyIDBound)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys := openAt(t, Config{})
			if _, err := sys.Exec(stmts[0]); err != nil {
				t.Fatal(err)
			}
			for _, q := range stmts[1:] {
				if logical(q) || strings.Contains(q, "LIMIT") || strings.Contains(q, "GROUP BY") || strings.Contains(q, "COUNT(") {
					continue
				}
				head, p, _ := strings.Cut(q, " WHERE ")
				unfiltered := strings.Replace(head, " FROM ", ", ("+p+") AS keep FROM ", 1)
				want, err := sys.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				got, err := sys.Exec(unfiltered)
				if err != nil {
					t.Fatalf("%s: %v", unfiltered, err)
				}
				kept := 0
				for _, d := range got.Rows.ColByName("keep") {
					if d.Kind() == types.KindBool && d.Bool() {
						kept++
					}
				}
				if kept != want.Rows.Len() {
					t.Errorf("%s returns %d rows; without its WHERE, %d rows keep it", q, want.Rows.Len(), kept)
				}
				checked++
			}
		})
	}
	if checked == 0 {
		t.Fatal("no generated query was eligible")
	}
	t.Logf("%d queries checked", checked)
}
