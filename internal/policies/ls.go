package policies

import (
	"fmt"

	"coalloc/internal/cluster"
	"coalloc/internal/queues"
	"coalloc/internal/workload"
)

// LS is the local-schedulers policy: each cluster has a local FCFS queue
// receiving both single- and multi-component jobs. Every local scheduler
// has global knowledge of idle processors, but single-component jobs may
// run only on their own cluster, while multi-component jobs are
// co-allocated over the whole system.
//
// Scheduling visits all enabled queues in rounds, starting at most one job
// per queue per round. A queue whose head does not fit is disabled until
// the next departure from the system; at each departure the queues are
// re-enabled in the order in which they were disabled. The paper notes
// that picking jobs from any of the C queue heads acts as a form of
// backfilling with a window equal to the number of clusters.
type LS struct {
	qs          []queues.FIFO
	set         *queues.EnableSet
	fit         cluster.Fit
	sortedOrder bool
}

// NewLS returns the LS policy for a system of the given number of clusters.
func NewLS(clusters int, fit cluster.Fit) *LS {
	if clusters <= 0 {
		panic(fmt.Sprintf("policies: NewLS(%d)", clusters))
	}
	return &LS{
		qs:  make([]queues.FIFO, clusters),
		set: queues.NewEnableSet(clusters),
		fit: fit,
	}
}

// NewLSSortedReenable returns an LS variant that, at each departure,
// re-enables the queues in fixed index order instead of the paper's
// disable order — the re-enable-order ablation of DESIGN.md.
func NewLSSortedReenable(clusters int, fit cluster.Fit) *LS {
	p := NewLS(clusters, fit)
	p.sortedOrder = true
	return p
}

// Submit enqueues the job at its local queue and runs a scheduling pass.
// The job's Queue field must name a valid local queue.
func (p *LS) Submit(ctx Ctx, j *workload.Job) {
	if j.Queue < 0 || j.Queue >= len(p.qs) {
		panic(fmt.Sprintf("policies: LS job %d routed to queue %d of %d", j.ID, j.Queue, len(p.qs)))
	}
	p.qs[j.Queue].Push(j)
	// A pass leaves every enabled queue empty (a nonempty enabled head
	// either started or disabled its queue), and only pushes happen
	// between passes. A job landing in a disabled queue is therefore
	// invisible to its pass: every visited queue is empty, nothing can
	// start — a provable no-op, elided.
	if !p.set.IsEnabled(j.Queue) {
		o := ctx.Obs()
		o.Pass()
		o.PassSkipped()
		return
	}
	p.pass(ctx)
}

// JobDeparted re-enables all queues in disable order (or fixed index
// order for the ablation variant) and runs a pass.
func (p *LS) JobDeparted(ctx Ctx, _ *workload.Job) {
	var re []int
	if p.sortedOrder {
		re = p.set.EnableAllSorted()
	} else {
		re = p.set.EnableAll()
	}
	if o := ctx.Obs(); o.Enabled() {
		now := ctx.Now()
		for _, q := range re {
			o.QueueEnabled(now, q)
		}
	}
	p.pass(ctx)
}

// CapacityLost is a no-op: LS keeps no capacity forecast, and shrinking
// the idle pool can only keep disabled heads disabled (Policy).
func (p *LS) CapacityLost(Ctx, int) {}

// CapacityRestored re-enables the queues under the same ordering contract
// as a departure — a repaired processor frees capacity exactly like one —
// and runs a pass (Policy).
func (p *LS) CapacityRestored(ctx Ctx, _ int) { p.JobDeparted(ctx, nil) }

// JobKilled reacts to an aborted job like a departure: its released
// processors may admit disabled queue heads (Policy).
func (p *LS) JobKilled(ctx Ctx, _ *workload.Job, _ int) { p.JobDeparted(ctx, nil) }

// pass repeatedly visits the enabled queues, starting at most one job per
// queue per round, until a full round starts nothing.
func (p *LS) pass(ctx Ctx) {
	m := ctx.Cluster()
	o := ctx.Obs()
	s := ctx.Scratch()
	o.Pass()
	for {
		progress := false
		// Snapshot the visit order: Disable mutates the enabled list.
		round := append(s.Round[:0], p.set.Enabled()...)
		for _, q := range round {
			head := p.qs[q].Head()
			if head == nil {
				continue // an empty queue is skipped, not disabled
			}
			placement, ok := p.place(m, head, q, s)
			if !ok {
				o.HeadMiss(q)
				if dt := ctx.Dec(); dt != nil && !head.Multi() {
					dt.LocalMiss(ctx.Now(), head, m, q)
				}
				if p.set.Disable(q) && o.Enabled() {
					o.QueueDisabled(ctx.Now(), q)
				}
				continue
			}
			p.qs[q].Pop()
			ctx.Dispatch(head, placement)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// place finds processors for the head job of queue q: multi-component jobs
// anywhere in the system, single-component jobs only on cluster q. The
// returned placement lives in the pass scratch; Dispatch copies it.
func (p *LS) place(m *cluster.Multicluster, j *workload.Job, q int, s *Scratch) ([]int, bool) {
	if j.Multi() {
		if !m.PlaceInto(j.Components, p.fit, s.Place, s.Used) {
			return nil, false
		}
		return s.Place[:len(j.Components)], true
	}
	if m.FitsOn(q, j.Components[0]) {
		s.Place[0] = q
		return s.Place[:1], true
	}
	return nil, false
}

// Queued returns the total number of waiting jobs across the local queues.
func (p *LS) Queued() int {
	var n int
	for i := range p.qs {
		n += p.qs[i].Len()
	}
	return n
}

// QueuedAt returns the length of local queue q (0 for the global queue id,
// which LS does not have).
func (p *LS) QueuedAt(q int) int {
	if q < 0 || q >= len(p.qs) {
		return 0
	}
	return p.qs[q].Len()
}
