package policies

import (
	"math"
	"sort"

	"coalloc/internal/cluster"
)

// refProfile is the naive reference implementation of the free-capacity
// profile: slice-of-slices segment storage and an O(S²·nc) earliestStart
// that rescans the whole duration window for every candidate start. It is
// the pre-optimization semantics, kept verbatim as the oracle for the
// differential property tests (TestProfileDifferential and friends) that
// pin the flat sliding-window profile bit-identical to it. It is not used
// by any policy.
type refProfile struct {
	times []float64
	idle  [][]int

	min   []int
	used  []bool
	place []int
}

// newRefProfile builds a reference profile from the current idle vector
// and the future releases of the running jobs.
func newRefProfile(m *cluster.Multicluster, now float64, running []runInfo) *refProfile {
	p := &refProfile{
		times: []float64{now},
		idle:  [][]int{make([]int, m.NumClusters())},
	}
	for c := 0; c < m.NumClusters(); c++ {
		p.idle[0][c] = m.Idle(c)
	}
	releases := append([]runInfo(nil), running...)
	sort.Slice(releases, func(a, b int) bool { return releases[a].finish < releases[b].finish })
	for _, r := range releases {
		if r.finish <= now {
			continue
		}
		idx := p.segmentAt(r.finish, true)
		for s := idx; s < len(p.times); s++ {
			for i, c := range r.placement {
				p.idle[s][c] += r.comps[i]
			}
		}
	}
	return p
}

// segmentAt returns the index of the segment starting exactly at t,
// inserting a breakpoint (split) when split is true and none exists.
func (p *refProfile) segmentAt(t float64, split bool) int {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	if !split {
		return i - 1
	}
	cp := append([]int(nil), p.idle[i-1]...)
	p.times = append(p.times, 0)
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.idle = append(p.idle, nil)
	copy(p.idle[i+1:], p.idle[i:])
	p.idle[i] = cp
	return i
}

// trim advances the profile start to now, dropping past segments.
func (p *refProfile) trim(now float64) {
	i := sort.SearchFloat64s(p.times, now)
	if i == len(p.times) || p.times[i] != now {
		i--
	}
	if i <= 0 {
		if p.times[0] < now {
			p.times[0] = now
		}
		return
	}
	nt := copy(p.times, p.times[i:])
	ni := copy(p.idle, p.idle[i:])
	p.times = p.times[:nt]
	p.idle = p.idle[:ni]
	p.times[0] = now
}

// minWindow returns the pointwise minimum idle vector over [t, t+dur) by
// rescanning every in-window segment — the quadratic inner loop the flat
// profile's monotonic deques replace.
func (p *refProfile) minWindow(t, dur float64) []int {
	end := t + dur
	start := sort.SearchFloat64s(p.times, t)
	if start == len(p.times) || p.times[start] != t {
		start--
	}
	if cap(p.min) < len(p.idle[0]) {
		p.min = make([]int, len(p.idle[0]))
	}
	min := p.min[:len(p.idle[0])]
	copy(min, p.idle[start])
	for s := start + 1; s < len(p.times) && p.times[s] < end; s++ {
		for c, v := range p.idle[s] {
			if v < min[c] {
				min[c] = v
			}
		}
	}
	return min
}

// earliestStart is the reference O(S²·nc) scan: every segment start is a
// candidate, and every candidate rescans its window and runs the greedy
// placement.
func (p *refProfile) earliestStart(comps []int, dur float64, fit cluster.Fit) (float64, []int) {
	n := len(p.idle[0])
	if cap(p.used) < n {
		p.used = make([]bool, n)
	}
	if cap(p.place) < len(comps) {
		p.place = make([]int, len(comps))
	}
	for s := 0; s < len(p.times); s++ {
		t := p.times[s]
		min := p.minWindow(t, dur)
		if cluster.PlaceVector(min, comps, fit, p.place[:len(comps)], p.used[:n]) {
			return t, p.place[:len(comps)]
		}
	}
	return math.Inf(1), nil
}

// reserve subtracts the components from the profile over [t, t+dur).
func (p *refProfile) reserve(comps, placement []int, t, dur float64) {
	start := p.segmentAt(t, true)
	end := p.segmentAt(t+dur, true)
	for s := start; s < end; s++ {
		for i, c := range placement {
			p.idle[s][c] -= comps[i]
			if p.idle[s][c] < 0 {
				panic("policies: reservation overlaps beyond capacity")
			}
		}
	}
}
