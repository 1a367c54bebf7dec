package policies

import (
	"math"
	"sort"

	"coalloc/internal/cluster"
)

// profile is a piecewise-constant forecast of per-cluster idle processors,
// the data structure behind conservative backfilling: segment i covers
// [time(i), time(i+1)) (the last segment extends to infinity) with the
// idle vector seg(i).
//
// Storage is flat: one stride-nc backing array holds every segment's idle
// vector, and a dead-prefix offset makes trim an O(1) bump with batched
// physical compaction. Segment splits are a single memmove each, and the
// minimum scan walks contiguous memory with no per-segment pointer chase.
// refProfile (refprofile_test.go) keeps the original slice-of-slices
// implementation as the reference the differential tests compare against.
//
// The conservative policy rebuilds its profile from the running set at
// every full pass (rebuild, into retained storage, so the steady state
// allocates nothing), then lays the queue reservations into it and trims
// it as the clock advances between passes.
type profile struct {
	nc    int       // clusters per segment (the stride)
	times []float64 // segment start times; live window [off, off+n)
	flat  []int     // idle vectors, stride nc; live window [off*nc, (off+n)*nc)
	off   int       // dead segments trimmed but not yet compacted away
	n     int       // live segments

	// earliestStart scratch, sized on demand and reused across calls so
	// the steady state allocates nothing.
	min   []int  // window minimum per cluster
	used  []bool // placement scratch
	place []int  // placement scratch
}

// rebuild overwrites p with the forecast implied by the current idle
// vector and the future releases of the running jobs, and returns p. A job
// whose finish time has arrived but whose departure has not fired yet
// still holds its processors, so it releases nothing. The releases fold in
// any order: a split copies the covering segment, so each segment ends up
// with the idle vector plus every release at or before its start.
func (p *profile) rebuild(m *cluster.Multicluster, now float64, running []runInfo) *profile {
	nc := m.NumClusters()
	p.nc, p.off, p.n = nc, 0, 1
	p.times = append(p.times[:0], now)
	p.flat = p.flat[:0]
	for c := 0; c < nc; c++ {
		p.flat = append(p.flat, m.Idle(c))
	}
	for i := range running {
		r := &running[i]
		if r.finish <= now {
			continue
		}
		for s := p.segmentAt(r.finish); s < p.n; s++ {
			seg := p.seg(s)
			for ci, c := range r.placement {
				seg[c] += r.comps[ci]
			}
		}
	}
	return p
}

// time returns the start time of live segment i.
func (p *profile) time(i int) float64 { return p.times[p.off+i] }

// seg returns the idle vector of live segment i (a view into the backing
// array; mutations write through).
func (p *profile) seg(i int) []int {
	a := (p.off + i) * p.nc
	return p.flat[a : a+p.nc : a+p.nc]
}

// segmentAt returns the index of the segment starting exactly at t,
// splitting the covering segment there when no breakpoint exists.
func (p *profile) segmentAt(t float64) int {
	live := p.times[p.off : p.off+p.n]
	i := sort.SearchFloat64s(live, t)
	if i < p.n && live[i] == t {
		return i
	}
	// Split segment i-1 at t: shift the tail right by one segment and
	// copy the covering segment's idle vector into the gap.
	a := p.off + i
	p.times = append(p.times, 0)
	copy(p.times[a+1:], p.times[a:])
	p.times[a] = t
	end := (p.off + p.n) * p.nc
	if cap(p.flat) < end+p.nc {
		grown := make([]int, end, 2*(end+p.nc))
		copy(grown, p.flat)
		p.flat = grown
	}
	p.flat = p.flat[:end+p.nc]
	copy(p.flat[(a+1)*p.nc:], p.flat[a*p.nc:end])
	copy(p.flat[a*p.nc:(a+1)*p.nc], p.flat[(a-1)*p.nc:a*p.nc])
	p.n++
	return i
}

// trim advances the profile start to now: segments entirely in the past
// are dropped and the segment covering now becomes the first, clipped to
// start at now. Breakpoints at exactly now survive as the new start. The
// drop is an offset bump; the dead prefix is physically compacted only
// once it is at least as large as the live region, keeping trim amortized
// O(1) per dropped segment.
func (p *profile) trim(now float64) {
	live := p.times[p.off : p.off+p.n]
	i := sort.SearchFloat64s(live, now)
	if i == p.n || live[i] != now {
		i-- // live[i] is the segment covering now
	}
	if i <= 0 {
		if live[0] < now {
			live[0] = now
		}
		return
	}
	p.off += i
	p.n -= i
	p.times[p.off] = now
	if p.off >= p.n {
		copy(p.times, p.times[p.off:p.off+p.n])
		copy(p.flat, p.flat[p.off*p.nc:(p.off+p.n)*p.nc])
		p.times = p.times[:p.n]
		p.flat = p.flat[:p.n*p.nc]
		p.off = 0
	}
}

// earliestStart returns the earliest time >= the profile start at which
// components can hold the same distinct clusters for the whole duration,
// together with the placement. It returns +Inf when the components can
// never fit.
//
// The candidate starts are the segment breakpoints. Each candidate takes
// the per-cluster minimum over the segments its window [t, t+dur) covers
// and runs the greedy placement on it; the candidate's own segment is
// always in the window, even for a zero duration.
//
// The returned placement is the profile's scratch buffer: it is valid
// only until the next earliestStart call on this profile, so callers must
// consume it (reserve, dispatch — Dispatch copies) before probing again.
// TestPoisonedScratchDifferential poisons it between policy calls.
func (p *profile) earliestStart(comps []int, dur float64, fit cluster.Fit) (float64, []int) {
	nc, S := p.nc, p.n
	if cap(p.min) < nc {
		p.min = make([]int, nc)
		p.used = make([]bool, nc)
	}
	if cap(p.place) < len(comps) {
		p.place = make([]int, len(comps))
	}
	times := p.times[p.off : p.off+S]
	flat := p.flat[p.off*nc : (p.off+S)*nc]
	min, place := p.min[:nc], p.place[:len(comps)]
	for s := 0; s < S; s++ {
		copy(min, flat[s*nc:(s+1)*nc])
		end := times[s] + dur
		for r := s + 1; r < S && times[r] < end; r++ {
			for c, v := range flat[r*nc : (r+1)*nc] {
				if v < min[c] {
					min[c] = v
				}
			}
		}
		if cluster.PlaceVector(min, comps, fit, place, p.used[:nc]) {
			return times[s], place
		}
	}
	return math.Inf(1), nil
}

// reserve subtracts the components from the profile over [t, t+dur).
func (p *profile) reserve(comps, placement []int, t, dur float64) {
	start := p.segmentAt(t)
	end := p.segmentAt(t + dur)
	for s := start; s < end; s++ {
		seg := p.seg(s)
		for i, c := range placement {
			seg[c] -= comps[i]
			if seg[c] < 0 {
				panic("policies: reservation overlaps beyond capacity")
			}
		}
	}
}
