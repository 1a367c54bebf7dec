package policies

import (
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

// svcJob builds a job with a service time, for reservation arithmetic.
func svcJob(id int64, svc float64, comps ...int) *workload.Job {
	j := mj(id, 0, comps...)
	j.ServiceTime = svc
	j.ExtendedServiceTime = svc
	if j.Multi() {
		j.ExtendedServiceTime = svc * 1.25
	}
	return j
}

func TestEASYBackfillsShortJob(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	// Job 1 occupies 20 of 32 processors until t=100.
	p.Submit(ctx, svcJob(1, 100, 20))
	// Job 2 needs the whole machine: blocked, reservation at t=100.
	p.Submit(ctx, svcJob(2, 50, 32))
	// Job 3 (10 procs, 80 s) fits in the 12 idle processors and ends
	// before the reservation: EASY starts it. Plain FCFS would not.
	p.Submit(ctx, svcJob(3, 80, 10))
	wantIDs(t, ctx.ids(), 1, 3)
	// Job 4 (10 procs, 200 s) also fits now but would push job 2's
	// start from t=100 to t=200: rejected.
	p.Submit(ctx, svcJob(4, 200, 10))
	wantIDs(t, ctx.ids(), 1, 3)
	if p.Queued() != 2 {
		t.Errorf("queued %d, want 2 (head + rejected candidate)", p.Queued())
	}
}

func TestEASYHeadStartsAtReservation(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	j1 := svcJob(1, 100, 20)
	p.Submit(ctx, j1)
	p.Submit(ctx, svcJob(2, 50, 32))
	j3 := svcJob(3, 80, 10)
	p.Submit(ctx, j3)
	// Finish the backfilled job first (t would be 80), then the blocker:
	// the head must start right after the blocker departs.
	ctx.finish(p, j3)
	wantIDs(t, ctx.ids(), 1, 3) // head still blocked (20 busy)
	ctx.finish(p, j1)
	wantIDs(t, ctx.ids(), 1, 3, 2)
}

func TestEASYBackfillsDeepInQueue(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	p.Submit(ctx, svcJob(1, 100, 30)) // 2 idle
	p.Submit(ctx, svcJob(2, 10, 32))  // head, reservation t=100
	p.Submit(ctx, svcJob(3, 10, 20))  // does not fit now
	p.Submit(ctx, svcJob(4, 50, 2))   // fits, ends at 50 <= 100: backfill
	wantIDs(t, ctx.ids(), 1, 4)
	if p.Queued() != 2 {
		t.Errorf("queued %d", p.Queued())
	}
}

func TestEASYPreservesFCFSOrderOfRemainder(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	j1 := svcJob(1, 100, 30)
	p.Submit(ctx, j1)
	p.Submit(ctx, svcJob(2, 10, 32)) // head
	p.Submit(ctx, svcJob(3, 10, 20))
	p.Submit(ctx, svcJob(4, 50, 2)) // backfilled
	p.Submit(ctx, svcJob(5, 10, 25))
	wantIDs(t, ctx.ids(), 1, 4)
	// Job 1 finishes: the head (32) is still blocked by job 4, but job 3
	// (20 procs, ending before job 4's release) backfills into the 30
	// idle processors — deep backfilling keeps working as jobs drain.
	ctx.finish(p, j1)
	wantIDs(t, ctx.ids(), 1, 4, 3)
	// After jobs 4 and 3 finish the machine empties; FCFS resumes with
	// the head (2) and only then 5 — order is preserved.
	ctx.finish(p, ctx.dispatched[1])
	wantIDs(t, ctx.ids(), 1, 4, 3)
	ctx.finish(p, ctx.dispatched[2])
	wantIDs(t, ctx.ids(), 1, 4, 3, 2)
	ctx.finish(p, ctx.dispatched[3])
	wantIDs(t, ctx.ids(), 1, 4, 3, 2, 5)
}

func TestEASYMulticlusterBackfill(t *testing.T) {
	ctx := newMockCtx() // 4 x 32
	p := NewEASY(cluster.WorstFit)
	// Fill three clusters until t=125 (100 s, 1.25 extension).
	p.Submit(ctx, svcJob(1, 100, 32, 32, 32))
	// The head needs the whole system: blocked, reservation at t=125.
	p.Submit(ctx, svcJob(2, 10, 32, 32, 32, 32))
	// A short 16-processor job fits on the free cluster and is gone
	// before the reservation: backfilled.
	p.Submit(ctx, svcJob(3, 10, 16))
	wantIDs(t, ctx.ids(), 1, 3)
	// A 1000 s 16-processor job would still hold part of the free
	// cluster at t=125, delaying the whole-system head: rejected.
	p.Submit(ctx, svcJob(4, 1000, 16))
	wantIDs(t, ctx.ids(), 1, 3)
}

func TestEASYBehavesLikeFCFSWhenNothingFits(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	big := svcJob(1, 10, 32)
	p.Submit(ctx, big)
	p.Submit(ctx, svcJob(2, 10, 32))
	p.Submit(ctx, svcJob(3, 10, 32))
	wantIDs(t, ctx.ids(), 1)
	ctx.finish(p, big)
	wantIDs(t, ctx.ids(), 1, 2)
}

func TestEASYImpossibleHeadBlocksLikeFCFS(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	// A 33-processor job can never run on a 32-processor cluster; EASY
	// keeps FCFS semantics and does NOT backfill past an impossible
	// head (the pathological case is reported by the replay driver).
	p.Submit(ctx, svcJob(1, 10, 33))
	p.Submit(ctx, svcJob(2, 10, 8))
	wantIDs(t, ctx.ids())
	if p.Queued() != 2 {
		t.Errorf("queued %d", p.Queued())
	}
}

func TestEASYQueuedAt(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	p.Submit(ctx, svcJob(1, 10, 32))
	p.Submit(ctx, svcJob(2, 10, 32))
	if p.QueuedAt(workload.GlobalQueue) != 1 || p.QueuedAt(0) != 0 {
		t.Error("EASY QueuedAt")
	}
}

func TestEASYRunningSetBookkeeping(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewEASY(cluster.WorstFit)
	j1 := svcJob(1, 100, 16)
	j2 := svcJob(2, 100, 16)
	p.Submit(ctx, j1)
	p.Submit(ctx, j2)
	if len(p.running) != 2 {
		t.Fatalf("running set %d, want 2", len(p.running))
	}
	ctx.finish(p, j1)
	if len(p.running) != 1 || p.running[0].job != j2 {
		t.Error("running set not maintained on departure")
	}
	ctx.finish(p, j2)
	if len(p.running) != 0 {
		t.Error("running set not emptied")
	}
}
