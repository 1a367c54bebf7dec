package policies

import (
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// mockCtx implements Ctx with a real multicluster and a dispatch log.
type mockCtx struct {
	m          *cluster.Multicluster
	scratch    *Scratch
	dispatched []*workload.Job
	now        float64
	obs        *obs.Observer
	dec        *dectrace.Tracer
}

func newMockCtx(sizes ...int) *mockCtx {
	if len(sizes) == 0 {
		sizes = []int{32, 32, 32, 32}
	}
	return &mockCtx{m: cluster.New(sizes), scratch: NewScratch(len(sizes))}
}

func (c *mockCtx) Cluster() *cluster.Multicluster { return c.m }

func (c *mockCtx) Now() float64 { return c.now }

func (c *mockCtx) Obs() *obs.Observer { return c.obs }

func (c *mockCtx) Dec() *dectrace.Tracer { return c.dec }

func (c *mockCtx) Scratch() *Scratch { return c.scratch }

func (c *mockCtx) Dispatch(j *workload.Job, placement []int) {
	c.m.Alloc(j.Components, placement)
	// Per the Ctx contract, placement may be pass scratch: keep a copy.
	j.Placement = append([]int(nil), placement...)
	c.dispatched = append(c.dispatched, j)
}

// finish releases a running job's processors and notifies the policy.
func (c *mockCtx) finish(p Policy, j *workload.Job) {
	c.m.Release(j.Components, j.Placement)
	p.JobDeparted(c, j)
}

func (c *mockCtx) ids() []int64 {
	var ids []int64
	for _, j := range c.dispatched {
		ids = append(ids, j.ID)
	}
	return ids
}

func mj(id int64, queue int, comps ...int) *workload.Job {
	total := 0
	for _, c := range comps {
		total += c
	}
	return &workload.Job{ID: id, Queue: queue, TotalSize: total, Components: comps}
}

func wantIDs(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

// --- GS ---

func TestGSDispatchesFCFS(t *testing.T) {
	ctx := newMockCtx()
	p := NewGS(cluster.WorstFit)
	p.Submit(ctx, mj(1, 0, 16))
	p.Submit(ctx, mj(2, 0, 16, 16))
	wantIDs(t, ctx.ids(), 1, 2)
	if p.Queued() != 0 {
		t.Errorf("queued %d", p.Queued())
	}
}

func TestGSHeadOfLineBlocking(t *testing.T) {
	ctx := newMockCtx()
	p := NewGS(cluster.WorstFit)
	// Fill the system almost completely.
	filler := mj(1, 0, 32, 32, 32, 31)
	p.Submit(ctx, filler)
	// A large job blocks the head; a tiny job behind it must NOT start
	// (strict FCFS, no backfilling).
	p.Submit(ctx, mj(2, 0, 8))
	p.Submit(ctx, mj(3, 0, 1))
	wantIDs(t, ctx.ids(), 1)
	if p.Queued() != 2 {
		t.Errorf("queued %d, want 2", p.Queued())
	}
	// After the filler departs, both start in order.
	ctx.finish(p, filler)
	wantIDs(t, ctx.ids(), 1, 2, 3)
}

func TestGSPlacesComponentsOnDistinctClusters(t *testing.T) {
	ctx := newMockCtx()
	p := NewGS(cluster.WorstFit)
	j := mj(1, 0, 16, 16, 16)
	p.Submit(ctx, j)
	seen := map[int]bool{}
	for _, c := range j.Placement {
		if seen[c] {
			t.Fatalf("placement %v reuses a cluster", j.Placement)
		}
		seen[c] = true
	}
}

func TestGSSetsGlobalQueueTag(t *testing.T) {
	ctx := newMockCtx()
	p := NewGS(cluster.WorstFit)
	j := mj(1, 3, 16)
	p.Submit(ctx, j)
	if j.Queue != workload.GlobalQueue {
		t.Errorf("GS job queue tag %d", j.Queue)
	}
	if p.QueuedAt(workload.GlobalQueue) != 0 || p.QueuedAt(0) != 0 {
		t.Error("QueuedAt after dispatch")
	}
}

func TestSCOnSingleCluster(t *testing.T) {
	ctx := newMockCtx(128)
	p := NewGS(cluster.WorstFit)
	big := mj(1, 0, 128)
	p.Submit(ctx, big)
	p.Submit(ctx, mj(2, 0, 1))
	wantIDs(t, ctx.ids(), 1)
	ctx.finish(p, big)
	wantIDs(t, ctx.ids(), 1, 2)
}

// --- LS ---

func TestLSSingleComponentRestrictedToLocalCluster(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	// Fill cluster 2 completely; other clusters stay empty.
	blocker := mj(1, 2, 32)
	p.Submit(ctx, blocker)
	// A single-component job submitted to queue 2 must wait even though
	// three other clusters are idle.
	waiting := mj(2, 2, 8)
	p.Submit(ctx, waiting)
	wantIDs(t, ctx.ids(), 1)
	if p.QueuedAt(2) != 1 {
		t.Errorf("queue 2 length %d", p.QueuedAt(2))
	}
	ctx.finish(p, blocker)
	wantIDs(t, ctx.ids(), 1, 2)
	if waiting.Placement[0] != 2 {
		t.Errorf("local job placed on cluster %d, want its own cluster 2", waiting.Placement[0])
	}
}

func TestLSMultiComponentUsesAnyCluster(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	j := mj(1, 0, 16, 16, 16, 16)
	p.Submit(ctx, j)
	wantIDs(t, ctx.ids(), 1)
	if len(j.Placement) != 4 {
		t.Errorf("placement %v", j.Placement)
	}
}

func TestLSBackfillsAcrossQueues(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	// Queue 0's head does not fit (needs 4 clusters of 32, one busy).
	p.Submit(ctx, mj(1, 1, 20)) // occupies cluster 1
	big := mj(2, 0, 32, 32, 32, 32)
	p.Submit(ctx, big)
	wantIDs(t, ctx.ids(), 1)
	// A job in another queue still starts: the multi-queue backfilling
	// window of the paper.
	p.Submit(ctx, mj(3, 3, 8))
	wantIDs(t, ctx.ids(), 1, 3)
	if p.QueuedAt(0) != 1 {
		t.Errorf("queue 0 length %d", p.QueuedAt(0))
	}
}

func TestLSQueueDisabledUntilDeparture(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	hog := mj(1, 0, 32)
	p.Submit(ctx, hog) // fills cluster 0
	p.Submit(ctx, mj(2, 0, 16))
	wantIDs(t, ctx.ids(), 1) // head miss: queue 0 disabled
	// Free cluster 0 WITHOUT a departure event is impossible in the real
	// simulator; instead verify that a fitting job arriving at the
	// disabled queue does not start even though its queue head now also
	// fits nowhere else — i.e. the disable persists across arrivals.
	p.Submit(ctx, mj(3, 0, 1))
	wantIDs(t, ctx.ids(), 1)
	if p.QueuedAt(0) != 2 {
		t.Errorf("queue 0 length %d, want 2", p.QueuedAt(0))
	}
	// Departure re-enables the queue; both jobs start FCFS.
	ctx.finish(p, hog)
	wantIDs(t, ctx.ids(), 1, 2, 3)
}

func TestLSArrivalAtEnabledQueueStartsImmediately(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	// Disable queue 0 via a head miss.
	p.Submit(ctx, mj(1, 0, 32))
	p.Submit(ctx, mj(2, 0, 16))
	// Queue 1 is still enabled: an arriving fitting job starts at once.
	p.Submit(ctx, mj(3, 1, 16))
	wantIDs(t, ctx.ids(), 1, 3)
}

func TestLSRoundRobinStartsOnePerQueuePerRound(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	// Pre-block all clusters so nothing starts on submit.
	blocker := mj(1, 0, 32, 32, 32, 32)
	p.Submit(ctx, blocker)
	for _, sub := range []struct {
		id int64
		q  int
	}{{2, 0}, {3, 0}, {4, 1}, {5, 2}} {
		p.Submit(ctx, mj(sub.id, sub.q, 4))
	}
	wantIDs(t, ctx.ids(), 1)
	ctx.finish(p, blocker)
	// All four start; the first round starts one job per queue, so the
	// second job of queue 0 (id 3) starts last.
	if len(ctx.dispatched) != 5 {
		t.Fatalf("dispatched %v", ctx.ids())
	}
	if last := ctx.dispatched[4]; last.ID != 3 {
		t.Errorf("last dispatched %d, want 3 (second job of queue 0)", last.ID)
	}
}

func TestLSQueuedCounts(t *testing.T) {
	ctx := newMockCtx()
	p := NewLS(4, cluster.WorstFit)
	p.Submit(ctx, mj(1, 0, 32))
	p.Submit(ctx, mj(2, 0, 32))
	p.Submit(ctx, mj(3, 1, 32))
	p.Submit(ctx, mj(4, 1, 32))
	// 1 and 3 run; 2 and 4 wait.
	if p.Queued() != 2 || p.QueuedAt(0) != 1 || p.QueuedAt(1) != 1 {
		t.Errorf("queued %d (per queue %d/%d)", p.Queued(), p.QueuedAt(0), p.QueuedAt(1))
	}
	if p.QueuedAt(workload.GlobalQueue) != 0 || p.QueuedAt(99) != 0 {
		t.Error("LS has no global queue")
	}
}

func TestLSBadQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LS submit to invalid queue did not panic")
		}
	}()
	NewLS(4, cluster.WorstFit).Submit(newMockCtx(), mj(1, 7, 8))
}

func TestNewLSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLS(0) did not panic")
		}
	}()
	NewLS(0, cluster.WorstFit)
}

// --- LP ---

func TestLPRoutesMultiToGlobal(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	multi := mj(1, 2, 16, 16)
	p.Submit(ctx, multi)
	if multi.Queue != workload.GlobalQueue {
		t.Errorf("multi-component job queue tag %d", multi.Queue)
	}
	wantIDs(t, ctx.ids(), 1) // all locals empty, global eligible
}

func TestLPGlobalNeedsEmptyLocalQueue(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	// Occupy 30 of 32 processors on every cluster; local queues empty.
	var hogs []*workload.Job
	for q := 0; q < 4; q++ {
		hog := mj(int64(q+1), q, 30)
		p.Submit(ctx, hog)
		hogs = append(hogs, hog)
	}
	// A size-4 waiter in every local queue (2 idle per cluster): every
	// local queue is now non-empty.
	for q := 0; q < 4; q++ {
		p.Submit(ctx, mj(int64(q+10), q, 4))
	}
	// The global job (1,1) HAS room (2 idle on two clusters) but must
	// wait: no local queue is empty, so the global scheduler is not
	// eligible to run — the paper's local-priority rule.
	p.Submit(ctx, mj(100, 0, 1, 1))
	if p.QueuedAt(workload.GlobalQueue) != 1 {
		t.Fatalf("global queue length %d, want 1 (locals have priority)", p.QueuedAt(workload.GlobalQueue))
	}
	// One hog departs: queue 0's waiter starts and empties its queue, the
	// global queue becomes eligible, and (1,1) fits.
	ctx.finish(p, hogs[0])
	if p.QueuedAt(workload.GlobalQueue) != 0 {
		t.Errorf("global job still queued after a local queue emptied")
	}
}

func TestLPGlobalBlockedWhileLocalsBusy(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	// Local queues 0..3 each hold a waiting job; clusters full.
	var hogs []*workload.Job
	for q := 0; q < 4; q++ {
		hog := mj(int64(q+1), q, 32)
		p.Submit(ctx, hog)
		hogs = append(hogs, hog)
	}
	for q := 0; q < 4; q++ {
		p.Submit(ctx, mj(int64(q+10), q, 30))
	}
	p.Submit(ctx, mj(100, 0, 1, 1)) // global
	// Departure of hog 0: local waiter 10 starts (30 on cluster 0),
	// queue 0 empties, global job (1,1) should then fit (2 idle on
	// cluster 0 spread across 0 and nothing else)... cluster 0 has 2
	// idle but the job needs two DISTINCT clusters; only cluster 0 has
	// room, so the global job must stay queued.
	ctx.finish(p, hogs[0])
	if p.QueuedAt(workload.GlobalQueue) != 1 {
		t.Errorf("global job started without two available clusters")
	}
	// Another departure frees cluster 1 for its waiter (30), leaving 2
	// idle there too; now (1,1) fits on clusters 0 and 1.
	ctx.finish(p, hogs[1])
	if p.QueuedAt(workload.GlobalQueue) != 0 {
		t.Errorf("global job still queued with two clusters available")
	}
}

func TestLPLocalJobsRunOnOwnCluster(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	j := mj(1, 3, 8)
	p.Submit(ctx, j)
	if j.Placement[0] != 3 {
		t.Errorf("LP local job placed on cluster %d, want 3", j.Placement[0])
	}
}

func TestLPGlobalHeadMissDisablesUntilDeparture(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	// Fill clusters 0 and 1 with local jobs; queues stay empty so the
	// global queue remains eligible.
	a := mj(1, 0, 32)
	b := mj(2, 1, 32)
	p.Submit(ctx, a)
	p.Submit(ctx, b)
	// Global job needing three clusters of 20: does not fit (only two
	// clusters free) -> head miss disables the global queue.
	p.Submit(ctx, mj(3, 0, 20, 20, 20))
	if p.QueuedAt(workload.GlobalQueue) != 1 {
		t.Fatal("global job should wait")
	}
	// A second, small global job arrives; even though it would fit, the
	// global queue is FCFS and disabled, so it waits too.
	p.Submit(ctx, mj(4, 0, 2, 2))
	if p.QueuedAt(workload.GlobalQueue) != 2 {
		t.Errorf("global queue %d, want 2 (disabled until departure)", p.QueuedAt(workload.GlobalQueue))
	}
	// Departure re-enables the global queue; now the head fits.
	ctx.finish(p, a)
	wantIDs(t, ctx.ids(), 1, 2, 3, 4)
}

func TestLPQueuedCounts(t *testing.T) {
	ctx := newMockCtx()
	p := NewLP(4, cluster.WorstFit)
	p.Submit(ctx, mj(1, 0, 32))
	p.Submit(ctx, mj(2, 0, 5))
	p.Submit(ctx, mj(3, 0, 20, 20, 20, 20))
	// Job 1 runs; job 2 waits (cluster 0 full); job 3 runs (global,
	// clusters 1-3 + ... wait: needs 4 distinct clusters of 20, cluster 0
	// has 0 idle -> does not fit; waits).
	if p.Queued() != 2 {
		t.Errorf("queued %d", p.Queued())
	}
	if p.QueuedAt(0) != 1 || p.QueuedAt(workload.GlobalQueue) != 1 {
		t.Errorf("per-queue %d/%d", p.QueuedAt(0), p.QueuedAt(workload.GlobalQueue))
	}
	if p.QueuedAt(42) != 0 {
		t.Error("out-of-range queue")
	}
}

func TestLPBadQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LP submit to invalid queue did not panic")
		}
	}()
	NewLP(4, cluster.WorstFit).Submit(newMockCtx(), mj(1, -3, 8))
}

func TestNewLPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLP(-1) did not panic")
		}
	}()
	NewLP(-1, cluster.WorstFit)
}
