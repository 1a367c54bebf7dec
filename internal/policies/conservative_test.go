package policies

import (
	"math"
	"testing"
	"testing/quick"

	"coalloc/internal/cluster"
	"coalloc/internal/rng"
)

// --- profile unit tests ---

func TestProfileFromRunning(t *testing.T) {
	m := cluster.New([]int{32, 32})
	m.Alloc([]int{16, 8}, []int{0, 1})
	running := []runInfo{
		{finish: 10, comps: []int{16}, placement: []int{0}},
		{finish: 20, comps: []int{8}, placement: []int{1}},
	}
	p := newProfile(m, 0, running)
	// Segments: [0,10): (16,24); [10,20): (32,24); [20,inf): (32,32).
	if p.n != 3 {
		t.Fatalf("segments %d, want 3", p.n)
	}
	if s := p.seg(0); s[0] != 16 || s[1] != 24 {
		t.Errorf("segment 0 idle %v", s)
	}
	if s := p.seg(1); s[0] != 32 || s[1] != 24 {
		t.Errorf("segment 1 idle %v", s)
	}
	if s := p.seg(2); s[0] != 32 || s[1] != 32 {
		t.Errorf("segment 2 idle %v", s)
	}
}

func TestProfileEarliestStart(t *testing.T) {
	m := cluster.New([]int{32, 32})
	m.Alloc([]int{32}, []int{0})
	running := []runInfo{{finish: 100, comps: []int{32}, placement: []int{0}}}
	p := newProfile(m, 0, running)
	// (16,16) needs both clusters: earliest at t=100.
	tm, placement := p.earliestStart([]int{16, 16}, 50, cluster.WorstFit)
	if tm != 100 || len(placement) != 2 {
		t.Errorf("earliest start %g, placement %v", tm, placement)
	}
	// A single 16 fits immediately on cluster 1.
	tm, placement = p.earliestStart([]int{16}, 50, cluster.WorstFit)
	if tm != 0 || placement[0] != 1 {
		t.Errorf("immediate start %g on %v", tm, placement)
	}
	// A 33-wide component never fits.
	tm, _ = p.earliestStart([]int{33}, 1, cluster.WorstFit)
	if !math.IsInf(tm, 1) {
		t.Errorf("impossible component starts at %g", tm)
	}
}

func TestProfileReserveCarvesWindow(t *testing.T) {
	m := cluster.New([]int{32}) // one cluster, all idle
	p := newProfile(m, 0, nil)
	p.reserve([]int{20}, []int{0}, 50, 25) // occupy [50, 75)
	// A 20-wide job of duration 50 no longer fits at t=0 (would overlap
	// the reservation at 50); earliest start where a 40-wide total...
	// 20+20 > 32 in [50,75).
	tm, _ := p.earliestStart([]int{20}, 100, cluster.WorstFit)
	if tm != 75 {
		t.Errorf("long job starts at %g, want 75 (after the reservation)", tm)
	}
	// A short job that ends by t=50 backfills at once.
	tm, _ = p.earliestStart([]int{20}, 50, cluster.WorstFit)
	if tm != 0 {
		t.Errorf("short job starts at %g, want 0", tm)
	}
	// A 12-wide job fits alongside the 20-wide reservation at any time.
	tm, _ = p.earliestStart([]int{12}, 1000, cluster.WorstFit)
	if tm != 0 {
		t.Errorf("narrow job starts at %g, want 0", tm)
	}
}

func TestProfileReservePanicsOnOverlap(t *testing.T) {
	m := cluster.New([]int{32})
	p := newProfile(m, 0, nil)
	p.reserve([]int{20}, []int{0}, 0, 10)
	defer func() {
		if recover() == nil {
			t.Error("over-reservation did not panic")
		}
	}()
	p.reserve([]int{20}, []int{0}, 5, 10)
}

// TestProfileRandomConsistency: reservations never drive idle negative and
// earliestStart always returns a feasible window.
func TestProfileRandomConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		sizes := make([]int, 1+r.Intn(4))
		for i, size := 0, 16+r.Intn(32); i < len(sizes); i++ {
			sizes[i] = size
		}
		m := cluster.New(sizes)
		p := newProfile(m, 0, nil)
		for step := 0; step < 40; step++ {
			n := 1 + r.Intn(m.NumClusters())
			comps := make([]int, n)
			for i := range comps {
				comps[i] = 1 + r.Intn(16)
			}
			for i := 1; i < n; i++ {
				if comps[i] > comps[i-1] {
					comps[i] = comps[i-1]
				}
			}
			dur := 1 + r.Float64()*100
			tm, placement := p.earliestStart(comps, dur, cluster.WorstFit)
			if math.IsInf(tm, 1) {
				continue
			}
			// The returned window must be feasible: reserve panics
			// otherwise.
			p.reserve(comps, placement, tm, dur)
		}
		for s := 0; s < p.n; s++ {
			for _, v := range p.seg(s) {
				if v < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- policy behavior ---

func TestConservativeBackfillsWithoutDelayingAnyReservation(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	p.Submit(ctx, svcJob(1, 100, 20)) // runs; 12 idle
	p.Submit(ctx, svcJob(2, 50, 32))  // reserved at t=100
	p.Submit(ctx, svcJob(3, 10, 30))  // reserved at t=150 (after job 2)
	// Job 4: 10 procs for 80 s ends at t=80 <= 100: backfills.
	p.Submit(ctx, svcJob(4, 80, 10))
	wantIDs(t, ctx.ids(), 1, 4)
	// Job 5: 10 procs for 200 s would delay job 2: only reserved.
	p.Submit(ctx, svcJob(5, 200, 10))
	wantIDs(t, ctx.ids(), 1, 4)
	if p.Queued() != 3 {
		t.Errorf("queued %d, want 3", p.Queued())
	}
}

// In EASY, a candidate may delay the THIRD job as long as the head is
// protected; conservative backfilling must refuse such a candidate.
func TestConservativeStricterThanEASY(t *testing.T) {
	// Scenario on one 32-processor cluster:
	//   job1: 24 procs, 100 s  (runs; 8 idle)
	//   job2: 16 procs, 10 s   (head; blocked, reserved at t=100)
	//   job3: 16 procs, 10 s   (fits beside job2's reservation: also
	//                           reserved at t=100 — 16+16 = 32)
	//   job4:  8 procs, 150 s  (fits now and leaves the HEAD's t=100
	//                           start intact, but at t=100 only
	//                           32-8 = 24 processors are free, so job3
	//                           would slip to t=110)
	// EASY protects only the head and backfills job4; conservative
	// backfilling protects job3's reservation and refuses.
	easyCtx := newMockCtx(32)
	easy := NewEASY(cluster.WorstFit)
	consCtx := newMockCtx(32)
	cons := NewConservative(cluster.WorstFit, DefaultLookahead)
	jobs := [][2]float64{ // {service, size}
		{100, 24},
		{10, 16},
		{10, 16},
		{150, 8},
	}
	for i, spec := range jobs {
		easy.Submit(easyCtx, svcJob(int64(i+1), spec[0], int(spec[1])))
		cons.Submit(consCtx, svcJob(int64(i+1), spec[0], int(spec[1])))
	}
	wantIDs(t, easyCtx.ids(), 1, 4) // EASY backfills job 4
	wantIDs(t, consCtx.ids(), 1)    // conservative protects job 3
}

func TestConservativeFCFSWhenNothingBackfills(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	j1 := svcJob(1, 10, 32)
	p.Submit(ctx, j1)
	p.Submit(ctx, svcJob(2, 10, 32))
	p.Submit(ctx, svcJob(3, 10, 32))
	wantIDs(t, ctx.ids(), 1)
	ctx.finish(p, j1)
	wantIDs(t, ctx.ids(), 1, 2)
}

func TestConservativeImpossibleJobDoesNotBlockOthers(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	// An impossible job (33 procs) holds no reservation; unlike FCFS
	// and EASY, conservative backfilling schedules around it.
	p.Submit(ctx, svcJob(1, 10, 33))
	p.Submit(ctx, svcJob(2, 10, 8))
	wantIDs(t, ctx.ids(), 2)
	if p.Queued() != 1 {
		t.Errorf("queued %d", p.Queued())
	}
}

func TestConservativeMulticluster(t *testing.T) {
	ctx := newMockCtx()
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	p.Submit(ctx, svcJob(1, 100, 32, 32, 32))    // 1 cluster free
	p.Submit(ctx, svcJob(2, 10, 32, 32, 32, 32)) // whole system, t=125
	p.Submit(ctx, svcJob(3, 10, 16))             // backfills now
	wantIDs(t, ctx.ids(), 1, 3)
}

func TestConservativeQueuedAt(t *testing.T) {
	ctx := newMockCtx(32)
	p := NewConservative(cluster.WorstFit, DefaultLookahead)
	p.Submit(ctx, svcJob(1, 10, 32))
	p.Submit(ctx, svcJob(2, 10, 32))
	if p.QueuedAt(-1) != 1 || p.QueuedAt(0) != 0 {
		t.Error("QueuedAt")
	}
}
