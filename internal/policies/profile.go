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
// physical compaction. cloneInto is two bulk copies, segment splits are a
// single memmove each, and the minimum scan walks contiguous memory with
// no per-segment pointer chase. refProfile (refprofile_test.go) keeps the
// original slice-of-slices implementation as the reference the
// differential tests compare against.
//
// A profile can be used two ways. newProfile builds a throwaway forecast
// from the current running set (the reference semantics, and what the
// equivalence tests compare against). The backfilling policies instead
// maintain one profile incrementally across events — reserve on job start,
// trim on the advance of the clock — and clone it into reusable scratch
// storage once per scheduling pass.
type profile struct {
	nc    int       // clusters per segment (the stride)
	times []float64 // segment start times; live window [off, off+n)
	flat  []int     // idle vectors, stride nc; live window [off*nc, (off+n)*nc)
	off   int       // dead segments trimmed but not yet compacted away
	n     int       // live segments

	// earliestStart scratch, sized on demand and reused across calls so
	// the steady state allocates nothing.
	min   []int  // assembled window minimum per cluster
	prev  []int  // window minimum of the last greedy-evaluated candidate
	deq   []int  // nc monotonic deques of segment indexes, deqCap each
	dqh   []int  // per-cluster deque head
	dqt   []int  // per-cluster deque tail
	used  []bool // placement scratch
	place []int  // placement scratch
}

// newProfile builds a profile from the current idle vector and the future
// releases of the running jobs.
func newProfile(m *cluster.Multicluster, now float64, running []runInfo) *profile {
	nc := m.NumClusters()
	p := &profile{
		nc:    nc,
		times: make([]float64, 1, 8),
		flat:  make([]int, nc, 8*nc),
		n:     1,
	}
	p.times[0] = now
	for c := 0; c < nc; c++ {
		p.flat[c] = m.Idle(c)
	}
	releases := append([]runInfo(nil), running...)
	sort.Slice(releases, func(a, b int) bool { return releases[a].finish < releases[b].finish })
	for _, r := range releases {
		if r.finish <= now {
			continue
		}
		idx := p.segmentAt(r.finish, true)
		for s := idx; s < p.n; s++ {
			seg := p.seg(s)
			for i, c := range r.placement {
				seg[c] += r.comps[i]
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
// inserting a breakpoint (split) when split is true and none exists.
func (p *profile) segmentAt(t float64, split bool) int {
	live := p.times[p.off : p.off+p.n]
	i := sort.SearchFloat64s(live, t)
	if i < p.n && live[i] == t {
		return i
	}
	if !split {
		return i - 1
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

// shiftCapacity folds a capacity change of cluster c into the forecast:
// delta is -1 for a processor going down, +1 for a repair. A capacity flap
// has no release time, so unlike a reservation it shifts every live
// segment — the processor is gone (or back) for the entire horizon. The
// breakpoints are untouched; only the level moves.
//
// The caller must trim the profile to the current time first, and for a
// loss the first segment must have an idle processor on c to give up (the
// simulator guarantees it: a failure either lands on an idle processor or
// aborts a victim whose release was folded in before this call). Because
// the base profile's per-cluster values are nondecreasing in time — future
// segments only add releases — a valid first segment makes every later
// segment valid too; the panic guards the precondition.
func (p *profile) shiftCapacity(c, delta int) {
	for i := 0; i < p.n; i++ {
		s := p.seg(i)
		s[c] += delta
		if s[c] < 0 {
			panic("policies: capacity shift below zero idle forecast")
		}
	}
}

// removeBreak deletes live segment i, extending segment i-1 over its span
// — the cleanup for a breakpoint whose two sides became identical (an
// early release returning exactly the capacity its forecast breakpoint
// encoded). Rare path: one O(S) shift.
func (p *profile) removeBreak(i int) {
	a := p.off + i
	end := p.off + p.n
	copy(p.times[a:], p.times[a+1:end])
	copy(p.flat[a*p.nc:], p.flat[(a+1)*p.nc:end*p.nc])
	p.n--
	p.times = p.times[:end-1]
	p.flat = p.flat[:(end-1)*p.nc]
}

// cloneInto copies the profile's live segments into dst's storage (two
// bulk copies) and returns dst. The clone shares no state with p; it is
// the per-pass working copy transient reservations go into.
func (p *profile) cloneInto(dst *profile) *profile {
	dst.nc = p.nc
	dst.off = 0
	dst.n = p.n
	dst.times = append(dst.times[:0], p.times[p.off:p.off+p.n]...)
	dst.flat = append(dst.flat[:0], p.flat[p.off*p.nc:(p.off+p.n)*p.nc]...)
	return dst
}

// ensureScratch sizes the earliestStart scratch for the current segment
// count and component count.
func (p *profile) ensureScratch(comps int) {
	if cap(p.min) < p.nc {
		p.min = make([]int, p.nc)
		p.prev = make([]int, p.nc)
		p.dqh = make([]int, p.nc)
		p.dqt = make([]int, p.nc)
		p.used = make([]bool, p.nc)
	}
	if cap(p.deq) < p.nc*p.n {
		p.deq = make([]int, p.nc*(p.n+p.n/2+4))
	}
	if cap(p.place) < comps {
		p.place = make([]int, comps)
	}
}

// earliestStart returns the earliest time >= the profile start at which
// components can hold the same distinct clusters for the whole duration,
// together with the placement. It returns +Inf when the components can
// never fit.
//
// The candidate starts are the segment breakpoints. The per-cluster
// minimum over the duration window is maintained incrementally with one
// monotonic deque per cluster, so a full scan is O(S·nc) amortized
// instead of the O(S²·nc) of rescanning the window per candidate. The
// greedy placement itself runs only for the first candidate and for
// candidates where some in-window minimum actually rose: the placement
// rule is monotone in the idle vector (TestPlacementMonotone pins this
// exhaustively), so a candidate whose window minima are pointwise <= the
// last failed candidate's must fail too.
//
// The returned placement is the profile's scratch buffer: it is valid
// only until the next earliestStart call on this profile, so callers must
// consume it (reserve, dispatch — Dispatch copies) before probing again.
// TestPoisonedScratchDifferential poisons it between policy calls.
func (p *profile) earliestStart(comps []int, dur float64, fit cluster.Fit) (float64, []int) {
	nc, S := p.nc, p.n
	p.ensureScratch(len(comps))
	times := p.times[p.off : p.off+S]
	flat := p.flat[p.off*nc : (p.off+S)*nc]
	deqCap := S
	min, prev := p.min[:nc], p.prev[:nc]
	for c := 0; c < nc; c++ {
		p.dqh[c], p.dqt[c] = 0, 0
	}
	r := 0 // next segment to enter the window
	havePrev := false
	for s := 0; s < S; s++ {
		// Expire window-left segments (before the candidate start).
		for c := 0; c < nc; c++ {
			h := p.dqh[c]
			for h < p.dqt[c] && p.deq[c*deqCap+h] < s {
				h++
			}
			p.dqh[c] = h
		}
		// Admit segments starting before the window end. The candidate's
		// own segment is always in the window, matching the reference
		// minWindow even for a degenerate zero duration.
		end := times[s] + dur
		for ; r <= s || (r < S && times[r] < end); r++ {
			for c := 0; c < nc; c++ {
				v := flat[r*nc+c]
				t := p.dqt[c]
				for t > p.dqh[c] && flat[p.deq[c*deqCap+t-1]*nc+c] >= v {
					t--
				}
				p.deq[c*deqCap+t] = r
				p.dqt[c] = t + 1
			}
		}
		// Assemble the window minimum and check whether any cluster's
		// minimum rose since the last evaluated candidate.
		rose := !havePrev
		for c := 0; c < nc; c++ {
			v := flat[p.deq[c*deqCap+p.dqh[c]]*nc+c]
			min[c] = v
			if v > prev[c] {
				rose = true
			}
		}
		if !rose {
			continue
		}
		if cluster.PlaceVector(min, comps, fit, p.place[:len(comps)], p.used[:nc]) {
			return times[s], p.place[:len(comps)]
		}
		copy(prev, min)
		havePrev = true
	}
	return math.Inf(1), nil
}

// reserve subtracts the components from the profile over [t, t+dur).
func (p *profile) reserve(comps, placement []int, t, dur float64) {
	start := p.segmentAt(t, true)
	end := p.segmentAt(t+dur, true)
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
