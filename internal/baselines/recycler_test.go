package baselines

import (
	"sync"
	"testing"
)

func TestCoverageBasics(t *testing.T) {
	r := NewRecycler()
	if !r.Covered("k", 5, 5) {
		t.Error("empty range is trivially covered")
	}
	if r.Covered("k", 0, 10) {
		t.Error("nothing materialized yet")
	}
	r.Add("k", 0, 100)
	if !r.Covered("k", 0, 100) || !r.Covered("k", 10, 90) {
		t.Error("subset ranges should be covered")
	}
	if r.Covered("k", 0, 101) || r.Covered("k", 50, 150) {
		t.Error("ranges beyond materialization are not covered")
	}
	if r.Covered("other", 0, 10) {
		t.Error("keys are independent")
	}
}

func TestCoverageAcrossMergedSpans(t *testing.T) {
	r := NewRecycler()
	r.Add("k", 0, 50)
	r.Add("k", 100, 150)
	if r.Covered("k", 0, 150) {
		t.Error("gap [50,100) should break coverage")
	}
	if !r.Covered("k", 110, 140) {
		t.Error("second span should cover")
	}
	r.Add("k", 40, 110) // bridges the gap
	if !r.Covered("k", 0, 150) {
		t.Error("bridged spans should cover")
	}
	if spans := r.ranges["k"]; len(spans) != 1 {
		t.Errorf("bridged spans kept apart: %v", spans)
	}
}

func TestAddMergesAdjacentAndOverlapping(t *testing.T) {
	r := NewRecycler()
	r.Add("k", 10, 20)
	r.Add("k", 20, 30) // adjacent
	r.Add("k", 5, 12)  // overlapping
	if !r.Covered("k", 5, 30) {
		t.Error("merged span should cover [5,30)")
	}
	r.Add("k", 0, 0) // empty add is a no-op
	if r.Covered("k", 0, 5) {
		t.Error("empty add must not extend coverage")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRecycler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add("k", int64(j*10), int64(j*10+5))
				r.Covered("k", int64(j*10), int64(j*10+5))
			}
		}(i)
	}
	wg.Wait()
	if !r.Covered("k", 990, 995) {
		t.Error("concurrent adds lost data")
	}
}
