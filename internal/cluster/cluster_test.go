package cluster

import (
	"testing"
	"testing/quick"

	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// place is PlaceInto with fresh buffers: it returns the cluster index per
// component and true, or nil and false when the request does not fit.
func place(m *Multicluster, components []int, fit Fit) ([]int, bool) {
	placement := make([]int, len(components))
	used := make([]bool, m.NumClusters())
	if !m.PlaceInto(components, fit, placement, used) {
		return nil, false
	}
	return placement, true
}

func TestNewAndAccessors(t *testing.T) {
	m := New([]int{32, 16, 8})
	if m.NumClusters() != 3 || m.Capacity() != 56 {
		t.Errorf("clusters %d capacity %d", m.NumClusters(), m.Capacity())
	}
	if m.Size(1) != 16 || m.Idle(1) != 16 {
		t.Errorf("cluster 1 size/idle %d/%d", m.Size(1), m.Idle(1))
	}
	if m.Busy() != 0 || m.TotalIdle() != 56 {
		t.Errorf("busy %d idle %d", m.Busy(), m.TotalIdle())
	}
}

func TestNewPanics(t *testing.T) {
	for _, sizes := range [][]int{nil, {}, {32, 0}, {-1}} {
		func() {
			defer func() { recover() }()
			New(sizes)
			t.Errorf("New(%v) did not panic", sizes)
		}()
	}
}

func TestWorstFitPicksEmptiest(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	// Make idle counts 32, 24, 28, 16.
	m.Alloc([]int{8}, []int{1})
	m.Alloc([]int{4}, []int{2})
	m.Alloc([]int{16}, []int{3})
	placement, ok := place(m, []int{10, 10}, WorstFit)
	if !ok {
		t.Fatal("placement failed")
	}
	// Worst Fit: first component to cluster 0 (32 idle), second to 2 (28).
	if placement[0] != 0 || placement[1] != 2 {
		t.Errorf("placement = %v, want [0 2]", placement)
	}
}

func TestBestFitPicksTightest(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	m.Alloc([]int{8}, []int{1})  // idle 24
	m.Alloc([]int{4}, []int{2})  // idle 28
	m.Alloc([]int{16}, []int{3}) // idle 16
	placement, ok := place(m, []int{10}, BestFit)
	if !ok {
		t.Fatal("placement failed")
	}
	if placement[0] != 3 { // 16 idle is the tightest fit >= 10
		t.Errorf("placement = %v, want [3]", placement)
	}
}

func TestFirstFitPicksLowestIndex(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	m.Alloc([]int{30}, []int{0}) // cluster 0 has 2 idle
	placement, ok := place(m, []int{10}, FirstFit)
	if !ok {
		t.Fatal("placement failed")
	}
	if placement[0] != 1 {
		t.Errorf("placement = %v, want [1]", placement)
	}
}

func TestPlaceDistinctClusters(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	placement, ok := place(m, []int{16, 16, 16, 16}, WorstFit)
	if !ok {
		t.Fatal("four components of 16 must fit on an empty 4x32 system")
	}
	seen := map[int]bool{}
	for _, c := range placement {
		if seen[c] {
			t.Fatalf("placement %v reuses a cluster", placement)
		}
		seen[c] = true
	}
}

func TestPlaceRejects(t *testing.T) {
	m := New([]int{32, 32, 32, 32})
	// A fifth component cannot get a distinct cluster.
	if _, ok := place(m, []int{1, 1, 1, 1, 1}, WorstFit); ok {
		t.Error("five components placed on four clusters")
	}
	// One oversized component.
	if _, ok := place(m, []int{33}, WorstFit); ok {
		t.Error("33 processors placed on a 32-cluster")
	}
	// Total fits but distinct clusters do not: two components of 20.
	m.Alloc([]int{20}, []int{0})
	m.Alloc([]int{20}, []int{1})
	m.Alloc([]int{20}, []int{2})
	if _, ok := place(m, []int{20, 20}, WorstFit); ok {
		t.Error("two 20s placed when only one cluster has 20 idle")
	}
	if _, ok := place(m, []int{20}, WorstFit); !ok {
		t.Error("a single 20 should still fit")
	}
}

func TestGreedyWFNotOptimal(t *testing.T) {
	// The paper's greedy rule can reject feasible placements: components
	// (16, 16) on idle (24, 16): WF puts 16 on the 24-idle cluster, then
	// the second 16 only fits on... the 16-idle cluster. Here greedy
	// works. A true counterexample needs the big component to block:
	// components (10, 8) with idle (9, 18): decreasing order places 10
	// on the 18-idle cluster, 8 on the 9-idle one — fine again. Greedy
	// with distinct clusters and decreasing sizes is in fact safe for
	// two components; document the deliberate greedy semantics instead.
	m := New([]int{24, 16})
	m.Alloc([]int{8}, []int{1}) // idle 24, 8
	placement, ok := place(m, []int{16, 8}, WorstFit)
	if !ok || placement[0] != 0 || placement[1] != 1 {
		t.Errorf("placement %v ok=%v, want [0 1]", placement, ok)
	}
}

func TestAllocReleaseCycle(t *testing.T) {
	m := New([]int{32, 32})
	m.Alloc([]int{16, 8}, []int{0, 1})
	if m.Idle(0) != 16 || m.Idle(1) != 24 || m.Busy() != 24 {
		t.Errorf("after alloc: idle %d/%d busy %d", m.Idle(0), m.Idle(1), m.Busy())
	}
	m.Release([]int{16, 8}, []int{0, 1})
	if m.Idle(0) != 32 || m.Idle(1) != 32 || m.Busy() != 0 {
		t.Errorf("after release: idle %d/%d busy %d", m.Idle(0), m.Idle(1), m.Busy())
	}
}

func TestAllocPanics(t *testing.T) {
	cases := []struct {
		name       string
		components []int
		placement  []int
	}{
		{"mismatched lengths", []int{8}, []int{0, 1}},
		{"bad cluster index", []int{8}, []int{5}},
		{"negative cluster", []int{8}, []int{-1}},
		{"duplicate cluster", []int{8, 8}, []int{0, 0}},
		{"over capacity", []int{33}, []int{0}},
	}
	for _, c := range cases {
		func() {
			defer func() { recover() }()
			m := New([]int{32, 32})
			m.Alloc(c.components, c.placement)
			t.Errorf("%s: Alloc did not panic", c.name)
		}()
	}
}

func TestReleasePanics(t *testing.T) {
	m := New([]int{32})
	func() {
		defer func() { recover() }()
		m.Release([]int{1}, []int{0})
		t.Error("over-release did not panic")
	}()
	func() {
		defer func() { recover() }()
		m.Release([]int{1, 2}, []int{0})
		t.Error("mismatched release did not panic")
	}()
}

// TestReleaseDuplicateClusterPanics pins the cumulative overflow check: a
// placement naming the same cluster twice, whose components individually
// fit under the cluster size but together exceed it, must panic — and must
// leave the counts untouched, because the check runs before any mutation.
// (A per-component check alone would accept this placement: each 20 fits
// within 12 idle + 20 <= 32, and the 40 total does not exceed the 40 busy.)
func TestReleaseDuplicateClusterPanics(t *testing.T) {
	m := New([]int{32, 32})
	m.Alloc([]int{20}, []int{0})
	m.Alloc([]int{20}, []int{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate-cluster over-release did not panic")
			}
		}()
		m.Release([]int{20, 20}, []int{0, 0})
	}()
	if m.Idle(0) != 12 || m.Idle(1) != 12 || m.Busy() != 40 {
		t.Errorf("rejected release mutated state: idle %d/%d busy %d",
			m.Idle(0), m.Idle(1), m.Busy())
	}
}

func TestFailRepair(t *testing.T) {
	m := New([]int{4, 4})
	m.Fail(0)
	if m.Down(0) != 1 || m.Idle(0) != 3 || m.Avail(0) != 3 {
		t.Errorf("after Fail: down %d idle %d avail %d", m.Down(0), m.Idle(0), m.Avail(0))
	}
	if m.TotalAvail() != 7 || m.TotalIdle() != 7 {
		t.Errorf("after Fail: total avail %d idle %d", m.TotalAvail(), m.TotalIdle())
	}
	m.Alloc([]int{3}, []int{0})
	if m.TotalIdle() != 4 || m.Avail(0) != 3 {
		t.Errorf("after Alloc on degraded cluster: total idle %d avail %d", m.TotalIdle(), m.Avail(0))
	}
	m.Repair(0)
	if m.Down(0) != 0 || m.Idle(0) != 1 || m.Avail(0) != 4 || m.TotalAvail() != 8 {
		t.Errorf("after Repair: down %d idle %d avail %d total %d",
			m.Down(0), m.Idle(0), m.Avail(0), m.TotalAvail())
	}
}

func TestFailRepairPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Multicluster)
	}{
		{"Fail out of range", func(m *Multicluster) { m.Fail(2) }},
		{"Repair out of range", func(m *Multicluster) { m.Repair(-1) }},
		{"Repair with nothing down", func(m *Multicluster) { m.Repair(0) }},
		{"Fail with no idle", func(m *Multicluster) {
			m.Alloc([]int{4}, []int{0})
			m.Fail(0)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(New([]int{4, 4}))
		}()
	}
}

func TestFitsOn(t *testing.T) {
	m := New([]int{32, 32})
	m.Alloc([]int{30}, []int{0})
	if m.FitsOn(0, 3) {
		t.Error("3 should not fit on a cluster with 2 idle")
	}
	if !m.FitsOn(0, 2) || !m.FitsOn(1, 32) {
		t.Error("legitimate fits rejected")
	}
}

func TestPlaceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlaceInto with no components did not panic")
		}
	}()
	place(New([]int{32}), nil, WorstFit)
}

func TestFitString(t *testing.T) {
	if WorstFit.String() != "WF" || FirstFit.String() != "FF" || BestFit.String() != "BF" {
		t.Error("fit rule names")
	}
	if Fit(42).String() == "" {
		t.Error("unknown fit rule should render something")
	}
}

// TestRandomAllocReleaseConservation drives random placement/allocation/
// release sequences and checks the bookkeeping invariants throughout:
// 0 <= idle <= size per cluster, busy + totalIdle == capacity.
func TestRandomAllocReleaseConservation(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		sizes := make([]int, 1+r.Intn(6))
		for i := range sizes {
			sizes[i] = 4 + r.Intn(40)
		}
		m := New(sizes)
		type alloc struct{ comps, placement []int }
		var live []alloc
		fits := []Fit{WorstFit, FirstFit, BestFit}
		for step := 0; step < 300; step++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				n := 1 + r.Intn(len(sizes))
				comps := make([]int, n)
				for i := range comps {
					comps[i] = 1 + r.Intn(20)
				}
				// Components must be nonincreasing for Place.
				for i := 1; i < n; i++ {
					if comps[i] > comps[i-1] {
						comps[i] = comps[i-1]
					}
				}
				if placement, ok := place(m, comps, fits[r.Intn(3)]); ok {
					m.Alloc(comps, placement)
					live = append(live, alloc{comps, placement})
				}
			} else {
				i := r.Intn(len(live))
				m.Release(live[i].comps, live[i].placement)
				live = append(live[:i], live[i+1:]...)
			}
			total := 0
			for c := range sizes {
				if m.Idle(c) < 0 || m.Idle(c) > m.Size(c) {
					return false
				}
				total += m.Idle(c)
			}
			if total != m.TotalIdle() || m.Busy()+total != m.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPlaceNeverOverfills: any accepted placement is actually feasible.
func TestPlaceNeverOverfills(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		m := New([]int{32, 32, 32, 32})
		// Random pre-load.
		for c := 0; c < 4; c++ {
			if n := r.Intn(33); n > 0 {
				m.Alloc([]int{n}, []int{c})
			}
		}
		n := 1 + r.Intn(4)
		comps := make([]int, n)
		for i := range comps {
			comps[i] = 1 + r.Intn(32)
		}
		for i := 1; i < n; i++ {
			if comps[i] > comps[i-1] {
				comps[i] = comps[i-1]
			}
		}
		placement, ok := place(m, comps, WorstFit)
		if !ok {
			return true
		}
		for i, c := range placement {
			if m.Idle(c) < comps[i] {
				return false
			}
		}
		m.Alloc(comps, placement) // must not panic
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFitRulesAgreeOnFeasibility pins, exhaustively on small systems,
// that Worst, First and Best Fit place a workload.Split request exactly
// when some placement on distinct clusters exists. The split's components
// are nonincreasing, so every cluster that fits a component fits all
// later ones, and any greedy distinct-cluster rule succeeds whenever a
// placement exists. The decision trace relies on it: another fit rule
// can never start a queue head the policy's rule could not.
func TestFitRulesAgreeOnFeasibility(t *testing.T) {
	for _, sizes := range [][]int{{8, 8, 8}, {6, 6, 6, 6}, {9, 3, 5, 7}} {
		capacity := 0
		for _, n := range sizes {
			capacity += n
		}
		busy := make([]int, len(sizes))
		for {
			m := New(sizes)
			for c, b := range busy {
				if b > 0 {
					m.Alloc([]int{b}, []int{c})
				}
			}
			for limit := 1; limit <= 9; limit++ {
				for total := 1; total <= capacity; total++ {
					comps := workload.Split(total, limit, len(sizes))
					want := distinctPlacementExists(m, comps, make([]bool, len(sizes)))
					for _, fit := range []Fit{WorstFit, FirstFit, BestFit} {
						if _, ok := place(m, comps, fit); ok != want {
							t.Fatalf("clusters %v, busy %v, request %v: %s places it = %v, a placement exists = %v",
								sizes, busy, comps, fit, ok, want)
						}
					}
				}
			}
			// Next busy vector, odometer style.
			c := 0
			for ; c < len(busy) && busy[c] == sizes[c]; c++ {
				busy[c] = 0
			}
			if c == len(busy) {
				break
			}
			busy[c]++
		}
	}
}

// distinctPlacementExists searches every assignment of comps to unused
// clusters with enough idle processors.
func distinctPlacementExists(m *Multicluster, comps []int, used []bool) bool {
	if len(comps) == 0 {
		return true
	}
	for c := range used {
		if !used[c] && m.Idle(c) >= comps[0] {
			used[c] = true
			ok := distinctPlacementExists(m, comps[1:], used)
			used[c] = false
			if ok {
				return true
			}
		}
	}
	return false
}
