package cluster

import (
	"testing"
	"testing/quick"

	"coalloc/internal/rng"
)

func TestFitsOrdered(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	m.Alloc([]int{30}, []int{1})
	if !m.FitsOrdered([]int{16, 16}, []int{0, 2}) {
		t.Error("fitting ordered request rejected")
	}
	if m.FitsOrdered([]int{16, 16}, []int{0, 1}) {
		t.Error("ordered request accepted on a full cluster")
	}
	func() {
		defer func() { recover() }()
		m.FitsOrdered([]int{16}, []int{0, 1})
		t.Error("mismatched ordered request did not panic")
	}()
	func() {
		defer func() { recover() }()
		m.FitsOrdered([]int{16}, []int{9})
		t.Error("out-of-range cluster did not panic")
	}()
}

func TestCarveFlexibleSpansGreedily(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	m.Alloc([]int{20}, []int{0}) // idle: 12, 32, 32, 32
	comps, placement, ok := m.CarveFlexible(70)
	if !ok {
		t.Fatal("70 processors must fit in 108 idle")
	}
	// Greedy from the emptiest: 32 (c1), 32 (c2), 6 (c3) — cluster
	// order among ties is stable (1, 2, 3).
	wantComps := []int{32, 32, 6}
	wantPlace := []int{1, 2, 3}
	if len(comps) != 3 {
		t.Fatalf("carve %v on %v", comps, placement)
	}
	for i := range wantComps {
		if comps[i] != wantComps[i] || placement[i] != wantPlace[i] {
			t.Fatalf("carve %v on %v, want %v on %v", comps, placement, wantComps, wantPlace)
		}
	}
}

func TestCarveFlexibleSingleCluster(t *testing.T) {
	m := New([]int{32, 32})
	comps, placement, ok := m.CarveFlexible(10)
	if !ok || len(comps) != 1 || comps[0] != 10 {
		t.Fatalf("carve %v on %v ok=%v", comps, placement, ok)
	}
}

func TestCarveFlexibleRejectsOverflow(t *testing.T) {
	m := New([]int{8, 8})
	if _, _, ok := m.CarveFlexible(17); ok {
		t.Error("17 processors carved out of 16 idle")
	}
	if _, _, ok := m.CarveFlexible(16); !ok {
		t.Error("exact-capacity carve rejected")
	}
}

func TestCarveFlexiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CarveFlexible(0) did not panic")
		}
	}()
	New([]int{8}).CarveFlexible(0)
}

// TestCarveFlexibleProperty: any successful carve sums to the total, uses
// distinct clusters, respects idle counts, and is nonincreasing; the carve
// succeeds exactly when total <= idle capacity.
func TestCarveFlexibleProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		sizes := make([]int, 1+r.Intn(5))
		for i, size := 0, 8+r.Intn(40); i < len(sizes); i++ {
			sizes[i] = size
		}
		m := New(sizes)
		// Random pre-load.
		for c := 0; c < m.NumClusters(); c++ {
			if n := r.Intn(m.Size(c) + 1); n > 0 {
				m.Alloc([]int{n}, []int{c})
			}
		}
		total := 1 + r.Intn(m.Capacity())
		comps, placement, ok := m.CarveFlexible(total)
		if ok != (total <= m.TotalIdle()) {
			return false
		}
		if !ok {
			return true
		}
		sum := 0
		seen := map[int]bool{}
		for i, c := range comps {
			if c <= 0 || c > m.Idle(placement[i]) || seen[placement[i]] {
				return false
			}
			if i > 0 && comps[i] > comps[i-1] {
				return false
			}
			seen[placement[i]] = true
			sum += c
		}
		if sum != total {
			return false
		}
		m.Alloc(comps, placement) // must not panic
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
