package policies

import (
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

func TestSPFOrdersByServiceTime(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewSPF(cluster.WorstFit)
	// Fill the machine so submissions queue up.
	blocker := svcJob(1, 10, 32)
	p.Submit(ctx, blocker)
	p.Submit(ctx, svcJob(2, 300, 8))
	p.Submit(ctx, svcJob(3, 50, 8))
	p.Submit(ctx, svcJob(4, 100, 8))
	wantIDs(t, ctx.ids(), 1)
	ctx.finish(p, blocker)
	// All three fit at once; they start shortest-first: 3, 4, 2.
	wantIDs(t, ctx.ids(), 1, 3, 4, 2)
}

func TestSPFBlocksOnShortestNonFitting(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewSPF(cluster.WorstFit)
	p.Submit(ctx, svcJob(1, 1000, 30)) // runs; 2 idle
	p.Submit(ctx, svcJob(2, 10, 8))    // shortest, does not fit
	p.Submit(ctx, svcJob(3, 50, 2))    // fits, but waits behind job 2
	wantIDs(t, ctx.ids(), 1)
	if p.Queued() != 2 {
		t.Errorf("queued %d", p.Queued())
	}
}

func TestSPFQueuedAtEmpty(t *testing.T) {
	p := NewSPF(cluster.WorstFit)
	if p.QueuedAt(workload.GlobalQueue) != 0 || p.QueuedAt(0) != 0 {
		t.Error("QueuedAt on empty policy")
	}
}

func TestSPFStableForEqualServiceTimes(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewSPF(cluster.WorstFit)
	blocker := svcJob(1, 10, 32)
	p.Submit(ctx, blocker)
	// Equal service times: FCFS order must be preserved among ties.
	p.Submit(ctx, svcJob(2, 50, 4))
	p.Submit(ctx, svcJob(3, 50, 4))
	p.Submit(ctx, svcJob(4, 50, 4))
	ctx.finish(p, blocker)
	wantIDs(t, ctx.ids(), 1, 2, 3, 4)
}
