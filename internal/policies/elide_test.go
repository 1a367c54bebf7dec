package policies

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/obs"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// consStream drives one Conservative policy through a random engine-like
// event stream — arrivals, exact-time departures, departure/arrival ties,
// and early departures — and returns the dispatch log (job, time,
// placement, in order) plus the metrics summary. The stream derives from
// the seed and the policy's own decisions, so two runs that behave
// identically consume the generator identically; any behavioral divergence
// surfaces as a dispatch-log mismatch.
func consStream(t *testing.T, seed uint64, lookahead int) (string, string) {
	t.Helper()
	r := rng.NewStream(seed)
	nc := 1 + r.Intn(4)
	size := 16 + r.Intn(17)
	sizes := make([]int, nc)
	for i := range sizes {
		sizes[i] = size
	}
	ctx := newMockCtx(sizes...)
	ctx.obs = obs.New(nil)
	var p *Conservative
	if nc == 1 {
		p = NewConservative(cluster.WorstFit, lookahead)
	} else {
		p = NewConservative([]cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit}[r.Intn(3)], lookahead)
	}

	finish := map[*workload.Job]float64{}
	var log strings.Builder
	logged := 0
	record := func() {
		for ; logged < len(ctx.dispatched); logged++ {
			j := ctx.dispatched[logged]
			finish[j] = ctx.now + j.ExtendedServiceTime
			fmt.Fprintf(&log, "%d@%g%v\n", j.ID, ctx.now, j.Placement)
		}
	}
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
		p.Submit(ctx, svcJob(nextID, 1+r.Float64()*100, comps...))
	}

	for step := 0; step < 200; step++ {
		var dj *workload.Job
		dt := math.Inf(1)
		for j, f := range finish {
			if f < dt || (f == dt && j.ID < dj.ID) {
				dj, dt = j, f
			}
		}
		if dj != nil && r.Float64() < 0.10 {
			// Early departure: releaseEarly plus full-pass invalidation.
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
			ctx.finish(p, ej)
			record()
			continue
		}
		if dj == nil || (p.Queued() < 3*lookahead && r.Float64() < 0.6) {
			// Arrival; sometimes exactly at the next finish (the FIFO event
			// tie where the overdue-departure guard must force a full pass).
			if dj != nil && r.Float64() < 0.2 {
				ctx.now = dt
			} else if dj != nil {
				ctx.now += r.Float64() * (dt - ctx.now)
			} else {
				ctx.now += r.Float64() * 20
			}
			submit()
			record()
		} else {
			ctx.now = dt
			delete(finish, dj)
			ctx.finish(p, dj)
			record()
		}
	}

	var metrics strings.Builder
	if err := ctx.obs.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	return log.String(), metrics.String()
}

// stripElisionMetrics removes the sched.passes_skipped and
// sched.passes_repaired lines — the only metrics allowed to differ between
// elided and full-pass runs.
func stripElisionMetrics(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "sched.passes_skipped") || strings.Contains(l, "sched.passes_repaired") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestConservativeElisionEquivalence pins the retained-reservation fast
// pass bit-identical to the full re-derivation: for random event streams
// and every lookahead regime (1 = head-only, small values that force
// constant window slide-in, and the default), the dispatch sequence (job,
// time, placement) and every scheduler counter except sched.passes_skipped
// must match between elision off and on.
func TestConservativeElisionEquivalence(t *testing.T) {
	for _, lookahead := range []int{1, 2, 4, DefaultLookahead} {
		for seed := uint64(1); seed <= 12; seed++ {
			prev := SetPassElision(false)
			logOff, metOff := consStream(t, seed, lookahead)
			SetPassElision(true)
			logOn, metOn := consStream(t, seed, lookahead)
			SetPassElision(prev)
			if logOff != logOn {
				t.Fatalf("lookahead %d seed %d: dispatch logs diverge\n--- full passes ---\n%s--- elided ---\n%s",
					lookahead, seed, logOff, logOn)
			}
			if a, b := stripElisionMetrics(metOff), stripElisionMetrics(metOn); a != b {
				t.Fatalf("lookahead %d seed %d: metrics diverge\n--- full passes ---\n%s\n--- elided ---\n%s",
					lookahead, seed, a, b)
			}
			if !strings.Contains(metOn, "sched.passes_skipped") {
				t.Fatalf("lookahead %d seed %d: elided run skipped no passes", lookahead, seed)
			}
		}
	}
}
