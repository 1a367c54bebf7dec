package policies

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// splitBreakpoint returns a base-profile breakpoint strictly inside
// (now, limit), or now when there is none — the target for arrivals that
// land exactly on a reservation split.
func splitBreakpoint(p *profile, now, limit float64) float64 {
	if p == nil {
		return now
	}
	for i := 1; i < p.n; i++ {
		if t := p.time(i); t > now && t < limit {
			return t
		}
	}
	return now
}

// profilesEqual reports whether two profiles describe identical forecasts:
// same breakpoints, same idle vector on every segment. It compares through
// the accessors, so profiles with different physical offsets into their
// flat backing arrays still compare equal when they describe the same
// forecast.
func profilesEqual(a, b *profile) bool {
	if a.n != b.n || a.nc != b.nc {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.time(i) != b.time(i) {
			return false
		}
		sa, sb := a.seg(i), b.seg(i)
		for c := range sa {
			if sa[c] != sb[c] {
				return false
			}
		}
	}
	return true
}

// profileString renders a profile for failure messages.
func profileString(p *profile) string {
	var times []float64
	var idle [][]int
	for i := 0; i < p.n; i++ {
		times = append(times, p.time(i))
		idle = append(idle, p.seg(i))
	}
	return fmt.Sprintf("times %v idle %v", times, idle)
}

// TestIncrementalProfileMatchesRebuilt drives a Conservative policy
// through random engine-like job streams (arrivals and exact-time
// departures, including arrivals that tie with a departure and are
// processed first, as the FIFO event order allows) and checks after every
// event that the incrementally maintained pass profile is identical to
// one rebuilt from scratch out of the running set. The stream also
// exercises two corners of the incremental bookkeeping: arrivals landing
// exactly on a breakpoint that a reservation's segmentAt split created
// (trim-after-split), and jobs departing strictly before their forecast
// finish (the releaseEarly path a preemptive Ctx or a fault kill takes).
func TestIncrementalProfileMatchesRebuilt(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.NewStream(seed)
		nc := 1 + r.Intn(4)
		size := 16 + r.Intn(17)
		sizes := make([]int, nc)
		for i := range sizes {
			sizes[i] = size
		}
		ctx := newMockCtx(sizes...)
		var p *Conservative
		if nc == 1 {
			p = NewConservative(cluster.WorstFit, DefaultLookahead)
		} else {
			p = NewConservative([]cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit}[r.Intn(3)], DefaultLookahead)
		}

		finish := map[*workload.Job]float64{}
		dispatched := 0
		var nextID int64

		submit := func() {
			nextID++
			n := 1 + r.Intn(nc)
			comps := make([]int, n)
			for i := range comps {
				comps[i] = 1 + r.Intn(size)
			}
			for i := 1; i < n; i++ {
				if comps[i] > comps[i-1] {
					comps[i] = comps[i-1]
				}
			}
			fullPasses(p).Submit(ctx, svcJob(nextID, 1+r.Float64()*100, comps...))
		}
		// check calls passProfile, which rebuilds into the scratch profile
		// the retained reservations live in, so every scheduling call goes
		// through fullPasses: the policy never trusts clobbered scratch.
		check := func(what string) {
			t.Helper()
			got := p.passProfile(ctx.m, ctx.now)
			want := newProfile(ctx.m, ctx.now, p.running)
			if !profilesEqual(got, want) {
				t.Fatalf("seed %d after %s at t=%g:\nincremental %s\nrebuilt     %s",
					seed, what, ctx.now, profileString(got), profileString(want))
			}
		}
		record := func() {
			for ; dispatched < len(ctx.dispatched); dispatched++ {
				j := ctx.dispatched[dispatched]
				finish[j] = ctx.now + j.ExtendedServiceTime
			}
		}

		for step := 0; step < 120; step++ {
			// Find the earliest pending departure.
			var dj *workload.Job
			dt := math.Inf(1)
			for j, f := range finish {
				if f < dt || (f == dt && j.ID < dj.ID) {
					dj, dt = j, f
				}
			}
			if dj != nil && r.Float64() < 0.12 {
				// Early departure: a random running job leaves strictly
				// before its forecast finish, so JobDeparted must give the
				// remaining reservation back (releaseEarly).
				run := make([]*workload.Job, 0, len(finish))
				for j := range finish {
					run = append(run, j)
				}
				sort.Slice(run, func(a, b int) bool { return run[a].ID < run[b].ID })
				ej := run[r.Intn(len(run))]
				if f := finish[ej]; f > ctx.now {
					ctx.now += r.Float64() * (math.Min(dt, f) - ctx.now)
				}
				delete(finish, ej)
				ctx.finish(fullPasses(p), ej)
				record()
				check("early departure")
				continue
			}
			if dj == nil || (p.Queued() < 24 && r.Float64() < 0.55) {
				// Arrival: sometimes exactly at the next finish time,
				// before that departure fires — the event tie the FIFO
				// engine order permits; sometimes exactly on a base-profile
				// breakpoint, which a reservation split may have created.
				if bp := splitBreakpoint(p.base, ctx.now, dt); bp > ctx.now && r.Float64() < 0.25 {
					ctx.now = bp
				} else if dj != nil && r.Float64() < 0.25 {
					ctx.now = dt
				} else if dj != nil {
					ctx.now += r.Float64() * (dt - ctx.now)
				} else {
					ctx.now += r.Float64() * 20
				}
				submit()
				record()
				check("arrival")
			} else {
				ctx.now = dt
				delete(finish, dj)
				ctx.finish(fullPasses(p), dj)
				record()
				check("departure")
			}
		}
	}
}

// TestProfileTrimAndClone pins the low-level invariants the incremental
// path relies on: trim drops past segments, keeps a breakpoint landing
// exactly on now, and cloneInto produces an independent copy.
func TestProfileTrimAndClone(t *testing.T) {
	m := cluster.New([]int{32})
	m.Alloc([]int{12}, []int{0})
	p := newProfile(m, 0, []runInfo{
		{finish: 10, comps: []int{8}, placement: []int{0}},
		{finish: 20, comps: []int{4}, placement: []int{0}},
	})
	// Segments: [0,10): 20, [10,20): 28, [20,inf): 32.
	p.trim(5)
	if p.n != 3 || p.time(0) != 5 || p.seg(0)[0] != 20 {
		t.Fatalf("trim(5): %s", profileString(p))
	}
	p.trim(10)
	if p.n != 2 || p.time(0) != 10 || p.seg(0)[0] != 28 {
		t.Fatalf("trim(10): %s", profileString(p))
	}
	if p.off != 1 {
		t.Errorf("trim(10) offset %d, want 1 (logical drop, no copy)", p.off)
	}
	var scratch profile
	cp := p.cloneInto(&scratch)
	if !profilesEqual(cp, p) {
		t.Fatalf("clone differs: %s vs %s", profileString(cp), profileString(p))
	}
	if cp.off != 0 {
		t.Errorf("clone offset %d, want 0 (clones start compacted)", cp.off)
	}
	cp.seg(0)[0] = -999
	cp.times[0] = -999
	if p.seg(0)[0] != 28 || p.time(0) != 10 {
		t.Error("clone shares storage with the original")
	}
}

// TestProfileTrimCompacts drives the offset past the live length so the
// batched physical compaction runs, and checks against the reference
// profile that the forecast survives it.
func TestProfileTrimCompacts(t *testing.T) {
	m := cluster.New([]int{32, 32})
	m.Alloc([]int{4, 4}, []int{0, 1})
	var running []runInfo
	for i := 0; i < 8; i++ {
		running = append(running, runInfo{
			finish: float64(10 * (i + 1)), comps: []int{1}, placement: []int{i % 2},
		})
	}
	m.Alloc([]int{8}, []int{0})
	running = append(running, runInfo{finish: 200, comps: []int{8}, placement: []int{0}})
	p := newProfile(m, 0, running)
	ref := newRefProfile(m, 0, running)
	for _, now := range []float64{10, 20, 30, 40, 50, 60, 70} {
		p.trim(now)
		ref.trim(now)
		if p.off != 0 && p.off >= p.n {
			t.Fatalf("trim(%g): offset %d not compacted with %d live segments", now, p.off, p.n)
		}
		if err := profileMatchesRef(p, ref); err != nil {
			t.Fatalf("trim(%g): %v", now, err)
		}
	}
}
