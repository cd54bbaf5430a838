package types

import (
	"slices"
	"testing"
)

// checkIDSet fails unless s's ranges are sorted, disjoint and
// non-adjacent, and Len is the number of ids they hold.
func checkIDSet(t *testing.T, s *IDSet) {
	t.Helper()
	n := 0
	rs := s.Ranges()
	for i, r := range rs {
		if r.Hi < r.Lo || i > 0 && r.Lo <= rs[i-1].Hi+1 {
			t.Fatalf("ranges %v are not sorted, disjoint and apart", rs)
		}
		n += int(r.Hi-r.Lo) + 1
	}
	if s.Len() != n {
		t.Fatalf("Len %d, ranges %v hold %d ids", s.Len(), rs, n)
	}
}

// TestIDSet: each case adds its steps' ranges in order and checks what
// the set covers after each, then the ranges and count it ends with.
// Ranges are closed; the empty one is {1, 0}.
func TestIDSet(t *testing.T) {
	type step struct {
		add   IDRange   // added first; Hi < Lo adds nothing
		in    []IDRange // covered after the add
		notIn []IDRange // not covered after the add
	}
	empty := IDRange{1, 0}
	cases := []struct {
		name  string
		steps []step
		want  []IDRange
	}{
		{"CoverageBasics", []step{
			{add: empty, in: []IDRange{{5, 4}}, notIn: []IDRange{{0, 9}}},
			{add: IDRange{0, 99}, in: []IDRange{{0, 99}, {10, 89}}, notIn: []IDRange{{0, 100}, {50, 149}}},
		}, []IDRange{{0, 99}}},
		{"CoverageAcrossMergedSpans", []step{
			{add: IDRange{0, 49}},
			{add: IDRange{100, 149}, in: []IDRange{{110, 139}}, notIn: []IDRange{{0, 149}, {49, 100}}},
			{add: IDRange{40, 109}, in: []IDRange{{0, 149}}}, // bridges the gap
		}, []IDRange{{0, 149}}},
		{"AddMergesAdjacentAndOverlapping", []step{
			{add: IDRange{10, 19}},
			{add: IDRange{20, 29}},                          // adjacent
			{add: IDRange{5, 11}, in: []IDRange{{5, 29}}},   // overlapping
			{add: IDRange{0, -1}, notIn: []IDRange{{0, 4}}}, // empty: no-op
		}, []IDRange{{5, 29}}},
		{"AscendingDenseBatches", []step{
			{add: IDRange{0, 9}},
			{add: IDRange{10, 19}},
			{add: IDRange{25, 30}, in: []IDRange{{0, 19}, {25, 30}}, notIn: []IDRange{{19, 25}, {20, 24}}},
		}, []IDRange{{0, 19}, {25, 30}}},
		{"IDsWithRepeatsAndGaps", []step{
			{add: IDRange{3, 3}}, {add: IDRange{3, 3}}, {add: IDRange{4, 4}},
			{add: IDRange{6, 6}}, {add: IDRange{6, 6}}, {add: IDRange{7, 7}},
			{add: IDRange{9, 9}, in: []IDRange{{6, 7}, {9, 9}}, notIn: []IDRange{{5, 5}, {4, 6}, {8, 9}}},
		}, []IDRange{{3, 4}, {6, 7}, {9, 9}}},
		{"RepeatedBatch", []step{
			{add: IDRange{0, 9}}, {add: IDRange{0, 9}}, {add: IDRange{2, 5}, in: []IDRange{{0, 9}}, notIn: []IDRange{{0, 10}}},
		}, []IDRange{{0, 9}}},
		{"BatchesBeforeTheLast", []step{
			{add: IDRange{20, 29}},
			{add: IDRange{0, 4}},
			{add: IDRange{40, 45}},
			{add: IDRange{6, 19}, in: []IDRange{{6, 29}}, notIn: []IDRange{{4, 6}}}, // touches 20..29
			{add: IDRange{5, 5}, in: []IDRange{{0, 29}}, notIn: []IDRange{{0, 30}}},
			{add: IDRange{-20, 50}, in: []IDRange{{-20, 50}}}, // swallows every range
		}, []IDRange{{-20, 50}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s IDSet
			for i, st := range c.steps {
				s.Add(st.add.Lo, st.add.Hi)
				checkIDSet(t, &s)
				for _, r := range st.in {
					if !s.Covers(r.Lo, r.Hi) {
						t.Errorf("step %d: %v does not cover %v", i, s.Ranges(), r)
					}
				}
				for _, r := range st.notIn {
					if s.Covers(r.Lo, r.Hi) {
						t.Errorf("step %d: %v covers %v", i, s.Ranges(), r)
					}
				}
			}
			if !slices.Equal(s.Ranges(), c.want) {
				t.Errorf("ranges %v, want %v", s.Ranges(), c.want)
			}
			s.Reset()
			checkIDSet(t, &s)
			if s.Len() != 0 || s.Covers(0, 0) {
				t.Errorf("reset set holds %v", s.Ranges())
			}
		})
	}
}

// FuzzIDSet adds ranges over ids 0..63 in any order — two bytes a
// range, lo and hi, an empty range when hi < lo — and holds the set to a
// map oracle: after every add its count, and its ranges (sorted,
// disjoint, non-adjacent, exactly the oracle's ids); at the end Covers
// on every range over -1..64.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 9, 10, 19, 30, 40})
	f.Add([]byte{20, 29, 0, 4, 6, 18, 5, 5})
	f.Add([]byte{3, 3, 3, 3, 4, 4, 9, 1, 63, 63, 0, 0})
	f.Add([]byte{40, 50, 10, 20, 0, 63})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s IDSet
		oracle := map[int64]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			lo, hi := int64(ops[i]%64), int64(ops[i+1]%64)
			s.Add(lo, hi)
			for id := lo; id <= hi; id++ {
				oracle[id] = true
			}
			checkIDSet(t, &s)
			if s.Len() != len(oracle) {
				t.Fatalf("after adding %d..%d: Len %d, oracle holds %d", lo, hi, s.Len(), len(oracle))
			}
			for _, r := range s.Ranges() {
				for id := r.Lo; id <= r.Hi; id++ {
					if !oracle[id] {
						t.Fatalf("ranges %v hold %d, never added", s.Ranges(), id)
					}
				}
			}
		}
		for lo := int64(-1); lo <= 64; lo++ {
			want := true // every id of lo..hi is in the oracle
			for hi := lo - 1; hi <= 64; hi++ {
				if hi >= lo {
					want = want && oracle[hi]
				}
				if got := s.Covers(lo, hi); got != want {
					t.Fatalf("%v: Covers(%d, %d) = %v, want %v", s.Ranges(), lo, hi, got, want)
				}
			}
		}
	})
}
