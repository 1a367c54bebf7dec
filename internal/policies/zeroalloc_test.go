package policies

import (
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// backlogCtx is a Ctx with a clock and a running set, so a test can keep a
// standing backlog in the system and retire jobs in finish-time order.
// Dispatch copies the placement into the job's own preallocated storage:
// the run's arena copy is the simulator's business (core pins it), and
// this way the only allocations left to count are the policy's.
type backlogCtx struct {
	m       *cluster.Multicluster
	scratch *Scratch
	now     float64
	running []*workload.Job
}

func (c *backlogCtx) Cluster() *cluster.Multicluster { return c.m }
func (c *backlogCtx) Now() float64                   { return c.now }
func (c *backlogCtx) Obs() *obs.Observer             { return nil }
func (c *backlogCtx) Dec() *dectrace.Tracer          { return nil }
func (c *backlogCtx) Scratch() *Scratch              { return c.scratch }

func (c *backlogCtx) Dispatch(j *workload.Job, placement []int) {
	c.m.Alloc(j.Components, placement)
	j.StartTime = c.now
	j.Placement = append(j.Placement[:0], placement...)
	c.running = append(c.running, j)
}

// departEarliest advances the clock to the earliest finish among the
// running jobs, releases that job and returns it.
func (c *backlogCtx) departEarliest() *workload.Job {
	k := 0
	for i, j := range c.running {
		if j.StartTime+j.RemainingTime() < c.running[k].StartTime+c.running[k].RemainingTime() {
			k = i
		}
	}
	j := c.running[k]
	c.now = j.StartTime + j.RemainingTime()
	c.running[k] = c.running[len(c.running)-1]
	c.running = c.running[:len(c.running)-1]
	c.m.Release(j.Components, j.Placement)
	return j
}

const backlogClusters, backlogPool = 4, 40

// backlogDriver keeps a standing backlog under a policy, drawn from a
// recycled pool of backlogPool jobs: one cycle retires the earliest-ending
// running job and submits a fresh one, so every cycle runs a departure
// pass and an arrival pass over the backlog.
type backlogDriver struct {
	p    Policy
	bc   *backlogCtx
	ctx  Ctx // bc, or a wrapper around it
	free []*workload.Job
	id   int64
	// poison poisons the pass scratch before and after every policy call
	// (see poisonScratch).
	poison bool
}

func newBacklogDriver(p Policy) *backlogDriver {
	spec := workload.Spec{ComponentLimit: 16, Clusters: backlogClusters, ExtensionFactor: 1.25}
	// A mix of 1-, 2- and 3-component totals and service times, cycled
	// deterministically over the pool.
	sizes := []int{5, 24, 48, 17, 3, 31}
	services := []float64{10, 37, 5, 120, 64, 13, 90}
	arena := workload.NewArena()
	free := make([]*workload.Job, backlogPool)
	for i := range free {
		j := spec.JobFromDraws(arena, sizes[i%len(sizes)], services[i%len(services)])
		j.Placement = arena.Ints(nil, backlogClusters)[:0]
		free[i] = j
	}
	bc := &backlogCtx{
		m:       cluster.New([]int{32, 32, 32, 32}),
		scratch: NewScratch(backlogClusters),
		running: make([]*workload.Job, 0, backlogPool),
	}
	return &backlogDriver{p: p, bc: bc, ctx: bc, free: free}
}

func (d *backlogDriver) submit() {
	j := d.free[0]
	d.free = append(d.free[:0], d.free[1:]...)
	d.id++
	j.ID = d.id
	j.Queue = int(d.id % backlogClusters)
	j.ArrivalTime = d.bc.now
	d.poisonScratch()
	d.p.Submit(d.ctx, j)
	d.poisonScratch()
}

func (d *backlogDriver) cycle() {
	j := d.bc.departEarliest()
	d.poisonScratch()
	d.p.JobDeparted(d.ctx, j)
	d.poisonScratch()
	d.free = append(d.free, j)
	d.submit()
}

// TestSteadyStateZeroAlloc pins the scheduling hot path at zero
// allocations in the steady state. Each case keeps inSystem jobs queued
// or running (see backlogDriver), so every cycle runs a departure pass and
// an arrival pass over a standing backlog: LS's queue and enable-set
// bookkeeping, EASY's reservation arithmetic, and conservative
// backfilling's profile clone and earliestStart probes. Any regression — a
// policy growing per-pass garbage, a queue re-allocating scratch, a
// profile probe that allocates — shows up as a nonzero count.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name     string
		policy   func() Policy
		inSystem int
	}{
		// One job at a time: every submit dispatches into an empty system.
		{"LS", func() Policy { return NewLS(backlogClusters, cluster.WorstFit) }, 1},
		{"GS-EASY", func() Policy { return NewEASY(cluster.WorstFit) }, 30},
		{"GS-CONS", func() Policy { return NewConservative(cluster.WorstFit, DefaultLookahead) }, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newBacklogDriver(tc.policy())
			for i := 0; i < tc.inSystem; i++ {
				d.submit()
			}
			// Warm up: let the queues, running sets and profiles reach
			// their working capacity.
			for i := 0; i < 200; i++ {
				d.cycle()
			}
			if got := len(d.bc.running) + d.p.Queued(); got != tc.inSystem {
				t.Fatalf("%d jobs in the system, want %d", got, tc.inSystem)
			}
			if tc.inSystem > 1 && d.p.Queued() == 0 {
				t.Fatal("no standing backlog: every job is running")
			}
			// One measured run turns the whole pool over, so an allocation
			// counts even when it happens only on some cycles (a profile
			// clone runs on most departures, not all).
			turn := func() {
				for i := 0; i < backlogPool; i++ {
					d.cycle()
				}
			}
			if a := testing.AllocsPerRun(100, turn); a != 0 {
				t.Fatalf("%s allocates %.2f times per %d jobs in the steady state, want 0", tc.name, a, backlogPool)
			}
		})
	}
}
