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

// TestSteadyStateZeroAlloc pins the scheduling hot path at zero
// allocations in the steady state. Each case keeps inSystem jobs queued
// or running, drawn from a recycled pool; one cycle retires the
// earliest-ending running job and submits a fresh one, so every cycle
// runs a departure pass and an arrival pass over a standing backlog: LS's
// queue and enable-set bookkeeping, EASY's reservation arithmetic, and
// conservative backfilling's profile clone and earliestStart probes. Any
// regression — a policy growing per-pass garbage, a queue re-allocating
// scratch, a profile probe that allocates — shows up as a nonzero count.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const clusters, pool = 4, 40
	cases := []struct {
		name     string
		policy   func() Policy
		inSystem int
	}{
		// One job at a time: every submit dispatches into an empty system.
		{"LS", func() Policy { return NewLS(clusters, cluster.WorstFit) }, 1},
		{"GS-EASY", func() Policy { return NewEASY(cluster.WorstFit) }, 30},
		{"GS-CONS", func() Policy { return NewConservative(cluster.WorstFit, DefaultLookahead) }, 30},
	}
	spec := workload.Spec{ComponentLimit: 16, Clusters: clusters, ExtensionFactor: 1.25}
	// A mix of 1-, 2- and 3-component totals and service times, cycled
	// deterministically over the pool.
	sizes := []int{5, 24, 48, 17, 3, 31}
	services := []float64{10, 37, 5, 120, 64, 13, 90}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arena := workload.NewArena()
			free := make([]*workload.Job, pool)
			for i := range free {
				j := spec.JobFromDraws(arena, sizes[i%len(sizes)], services[i%len(services)])
				j.Placement = arena.Ints(clusters)[:0]
				free[i] = j
			}
			ctx := &backlogCtx{
				m:       cluster.New([]int{32, 32, 32, 32}),
				scratch: NewScratch(clusters),
				running: make([]*workload.Job, 0, len(free)),
			}
			p := tc.policy()
			var id int64
			submit := func() {
				j := free[0]
				free = append(free[:0], free[1:]...)
				id++
				j.ID = id
				j.Queue = int(id % clusters)
				j.ArrivalTime = ctx.now
				p.Submit(ctx, j)
			}
			cycle := func() {
				j := ctx.departEarliest()
				p.JobDeparted(ctx, j)
				free = append(free, j)
				submit()
			}
			for i := 0; i < tc.inSystem; i++ {
				submit()
			}
			// Warm up: let the queues, running sets and profiles reach
			// their working capacity.
			for i := 0; i < 200; i++ {
				cycle()
			}
			if got := len(ctx.running) + p.Queued(); got != tc.inSystem {
				t.Fatalf("%d jobs in the system, want %d", got, tc.inSystem)
			}
			if tc.inSystem > 1 && p.Queued() == 0 {
				t.Fatal("no standing backlog: every job is running")
			}
			// One measured run turns the whole pool over, so an allocation
			// counts even when it happens only on some cycles (a profile
			// clone runs on most departures, not all).
			turn := func() {
				for i := 0; i < pool; i++ {
					cycle()
				}
			}
			if a := testing.AllocsPerRun(100, turn); a != 0 {
				t.Fatalf("%s allocates %.2f times per %d jobs in the steady state, want 0", tc.name, a, pool)
			}
		})
	}
}
