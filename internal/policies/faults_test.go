package policies

import (
	"math"
	"sort"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// TestProfileRepairDifferential is the fault-path counterpart of
// TestIncrementalProfileMatchesRebuilt: it drives a Conservative policy
// through random streams that interleave arrivals, departures, and the
// three fault hooks of Policy — silent capacity loss, a kill that aborts a
// running job, and a repair — and checks after every event that the
// incrementally repaired pass profile is identical to one rebuilt from
// scratch out of the multicluster state and the running set. The fault
// probability stands in for the MTBF axis of the core-level tests: a
// higher rate packs more capacity churn into the same stream length.
func TestProfileRepairDifferential(t *testing.T) {
	for _, rate := range []float64{0.05, 0.15, 0.30} {
		for seed := uint64(1); seed <= 12; seed++ {
			profileRepairDifferential(t, seed, rate)
		}
	}
}

func profileRepairDifferential(t *testing.T, seed uint64, rate float64) {
	t.Helper()
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
	// check rebuilds into the retained scratch profile, so every scheduling
	// call goes through fullPasses: the policy never trusts clobbered scratch.
	check := func(what string) {
		t.Helper()
		got := p.passProfile(ctx.m, ctx.now)
		want := newProfile(ctx.m, ctx.now, p.running)
		if !profilesEqual(got, want) {
			t.Fatalf("seed %d rate %g after %s at t=%g:\nincremental %s\nrebuilt     %s",
				seed, rate, what, ctx.now, profileString(got), profileString(want))
		}
	}
	record := func() {
		for ; dispatched < len(ctx.dispatched); dispatched++ {
			j := ctx.dispatched[dispatched]
			finish[j] = ctx.now + j.ExtendedServiceTime
		}
	}
	// faultEvent applies one randomly chosen fault event on a random
	// cluster, reporting whether an applicable one existed. Victim choice is
	// deterministic (highest ID with a component on the cluster) because the
	// mock never sets StartTime, the key faults.SelectVictim orders by.
	faultEvent := func() bool {
		t.Helper()
		c := r.Intn(nc)
		switch r.Intn(3) {
		case 0: // silent failure of an idle processor
			if ctx.m.Idle(c) == 0 {
				return false
			}
			ctx.m.Fail(c)
			p.CapacityLost(ctx, c)
			record()
			check("silent failure")
		case 1: // failure aborts a running job with a component on c
			var victim *workload.Job
			for j := range finish {
				for _, pc := range j.Placement {
					if pc == c && (victim == nil || j.ID > victim.ID) {
						victim = j
						break
					}
				}
			}
			if victim == nil {
				return false
			}
			delete(finish, victim)
			ctx.m.Release(victim.Components, victim.Placement)
			ctx.m.Fail(c)
			p.JobKilled(ctx, victim, c)
			record()
			check("kill")
		case 2: // repair returns one down processor
			if ctx.m.Down(c) == 0 {
				return false
			}
			ctx.m.Repair(c)
			p.CapacityRestored(ctx, c)
			record()
			check("repair")
		}
		return true
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
		if r.Float64() < rate {
			// A fault arrives strictly before the next departure fires.
			if dj != nil {
				ctx.now += r.Float64() * (dt - ctx.now)
			} else {
				ctx.now += r.Float64() * 20
			}
			if faultEvent() {
				continue
			}
		}
		if dj != nil && r.Float64() < 0.12 {
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
			if dj != nil && r.Float64() < 0.25 {
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

// TestConservativeJobKilledRepairsProfile pins the kill repair on a
// deterministic scenario: the victim leaves the running set, its window
// returns to the profile minus the processor the failure consumed, and the
// forced full pass dispatches a queued job into the released capacity.
func TestConservativeJobKilledRepairsProfile(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	j1 := svcJob(1, 100, 20)
	j2 := svcJob(2, 100, 12)
	fullPasses(p).Submit(ctx, j1)
	fullPasses(p).Submit(ctx, j2)
	fullPasses(p).Submit(ctx, svcJob(3, 10, 11)) // blocked: 0 idle; reserved at t=100
	wantIDs(t, ctx.ids(), 1, 2)

	// A failure lands on the fully busy cluster at t=30 and aborts job 2:
	// 12 processors come back, one of them goes down.
	ctx.now = 30
	ctx.m.Release(j2.Components, j2.Placement)
	ctx.m.Fail(0)
	p.JobKilled(ctx, j2, 0)

	// The repair pass sees 11 idle survivors and starts job 3 into them.
	wantIDs(t, ctx.ids(), 1, 2, 3)
	for i := range p.running {
		if p.running[i].job == j2 {
			t.Fatal("killed job still in the running set")
		}
	}
	if p.availVec[0] != 31 {
		t.Errorf("availVec[0] = %d after the kill, want 31", p.availVec[0])
	}
	got := p.passProfile(ctx.m, ctx.now)
	want := newProfile(ctx.m, ctx.now, p.running)
	if !profilesEqual(got, want) {
		t.Errorf("repaired profile differs from rebuild:\nincremental %s\nrebuilt     %s",
			profileString(got), profileString(want))
	}
}

// TestConservativeCapacityRoundTrip pins the silent-failure/repair pair: a
// shrink updates the never-fits vector (a full-machine job becomes +Inf),
// and the repair re-derives the verdict — the job gets its finite
// reservation back. The profile matches a rebuild at every stage.
func TestConservativeCapacityRoundTrip(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	fullPasses(p).Submit(ctx, svcJob(1, 100, 24)) // runs until t=100; 8 idle

	// checkProfile rebuilds into the retained scratch profile, so the
	// scheduling calls go through fullPasses.
	checkProfile := func(stage string) {
		t.Helper()
		got := p.passProfile(ctx.m, ctx.now)
		want := newProfile(ctx.m, ctx.now, p.running)
		if !profilesEqual(got, want) {
			t.Fatalf("%s: profile differs from rebuild:\nincremental %s\nrebuilt     %s",
				stage, profileString(got), profileString(want))
		}
	}

	ctx.m.Fail(0)
	p.CapacityLost(ctx, 0)
	if p.availVec[0] != 31 {
		t.Fatalf("availVec[0] = %d after the failure, want 31", p.availVec[0])
	}
	checkProfile("after silent failure")

	// A full-machine job can never fit at capacity 31: +Inf, holds no
	// window, so a small job behind it starts immediately.
	fullPasses(p).Submit(ctx, svcJob(2, 50, 32))
	fullPasses(p).Submit(ctx, svcJob(3, 10, 7))
	wantIDs(t, ctx.ids(), 1, 3)
	if len(p.resvs) != 1 || !math.IsInf(p.resvs[0].t, 1) {
		t.Fatalf("full-machine job at capacity 31: resvs %+v, want one +Inf entry", p.resvs)
	}

	ctx.m.Repair(0)
	p.CapacityRestored(ctx, 0)
	checkProfile("after repair")
	if p.availVec[0] != 32 {
		t.Fatalf("availVec[0] = %d after the repair, want 32", p.availVec[0])
	}
	// The restored capacity re-derives the +Inf verdict: the job now holds
	// a finite reservation at t=100, when the machine empties.
	if len(p.resvs) != 1 || p.resvs[0].t != 100 {
		t.Errorf("full-machine job after repair: resvs %+v, want one entry at t=100", p.resvs)
	}
}

// TestEASYJobKilledReleasesVictim pins the EASY kill path: the victim
// leaves the running set and the forced pass backfills a queued job into
// the capacity the abort released (minus the failed processor).
func TestEASYJobKilledReleasesVictim(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	j1 := svcJob(1, 100, 20)
	j2 := svcJob(2, 100, 12)
	p.Submit(ctx, j1)
	p.Submit(ctx, j2)                // machine full
	p.Submit(ctx, svcJob(3, 10, 11)) // queued
	wantIDs(t, ctx.ids(), 1, 2)

	ctx.m.Release(j2.Components, j2.Placement)
	ctx.m.Fail(0)
	p.JobKilled(ctx, j2, 0)

	// 12 released, 1 down: job 3 (11 procs) fits the 11 survivors.
	wantIDs(t, ctx.ids(), 1, 2, 3)
	for i := range p.running {
		if p.running[i].job == j2 {
			t.Fatal("killed job still in the running set")
		}
	}
}

// TestEASYStuckHeadUnsticksOnRepair pins the stuck-watermark lifecycle
// under faults: a head exceeding the post-failure up capacity sets the
// watermark, elided passes preserve it (and FCFS semantics), and the
// repair's full pass re-derives it against the restored capacity and
// starts the head.
func TestEASYStuckHeadUnsticksOnRepair(t *testing.T) {
	ctx := newMockCtx(8)
	p := NewEASY(cluster.WorstFit)
	ctx.m.Fail(0)
	p.CapacityLost(ctx, 0) // capacity 7

	p.Submit(ctx, svcJob(1, 10, 8))
	if !p.stuck {
		t.Fatal("head exceeding the up capacity did not set the stuck watermark")
	}
	p.Submit(ctx, svcJob(2, 10, 4))
	wantIDs(t, ctx.ids()) // nothing starts behind an unreservable head
	if !p.stuck {
		t.Fatal("elided pass cleared the watermark")
	}

	ctx.m.Repair(0)
	p.CapacityRestored(ctx, 0)
	wantIDs(t, ctx.ids(), 1)
	if p.stuck {
		t.Error("watermark survived the pass that started the head")
	}
}
