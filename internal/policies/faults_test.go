package policies

import (
	"math"
	"testing"

	"coalloc/internal/cluster"
)

// TestConservativeJobKilledRepairsProfile pins the kill repair on a
// deterministic scenario: the victim leaves the running set, the
// never-fits vector loses the processor the failure consumed, and the
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
}

// TestConservativeCapacityRoundTrip pins the silent-failure/repair pair: a
// shrink updates the never-fits vector (a full-machine job becomes +Inf),
// and the repair re-derives the verdict — the job gets its finite
// reservation back.
func TestConservativeCapacityRoundTrip(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	fullPasses(p).Submit(ctx, svcJob(1, 100, 24)) // runs until t=100; 8 idle

	ctx.m.Fail(0)
	p.CapacityLost(ctx, 0)
	if p.availVec[0] != 31 {
		t.Fatalf("availVec[0] = %d after the failure, want 31", p.availVec[0])
	}

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
