package policies

import (
	"sort"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

// SPF is GS with a shortest-processing-time-first queue discipline instead
// of FCFS — an extension ablation. All the paper's policies serve queues
// FCFS; SPF shows how much of the response-time gap between FCFS and
// backfilling comes purely from the service order rather than from the
// packing. Note that SPF is unfair: long jobs can be postponed
// indefinitely under sustained load, which is exactly the trade the
// experiment exposes.
//
// The discipline is non-preemptive: the pending job with the shortest
// extended service time is considered first, and the pass stops at the
// first job that does not fit (the analogue of FCFS head blocking; without
// it SPF would degenerate into best-effort packing).
type SPF struct {
	jobs []*workload.Job // kept sorted by ascending service time
	fit  cluster.Fit
	// blocked is the pass-elision watermark: the last pass ended on a
	// head miss. A Submit that inserts behind the head cannot unblock it
	// (capacity is unchanged; departures and fault events run full
	// passes), so its pass is a provable no-op.
	blocked bool
}

// NewSPF returns the shortest-processing-first global scheduler.
func NewSPF(fit cluster.Fit) *SPF { return &SPF{fit: fit} }

// Submit inserts the job in service-time order and runs a pass. The order
// key is the remaining time: identical to the extended service time except
// for checkpointed resubmissions, whose preserved progress makes them
// genuinely shorter.
func (p *SPF) Submit(ctx Ctx, j *workload.Job) {
	j.Queue = workload.GlobalQueue
	i := sort.Search(len(p.jobs), func(i int) bool {
		return p.jobs[i].RemainingTime() > j.RemainingTime()
	})
	p.jobs = append(p.jobs, nil)
	copy(p.jobs[i+1:], p.jobs[i:])
	p.jobs[i] = j
	if p.blocked && i > 0 {
		skipBlockedPass(ctx)
		return
	}
	p.pass(ctx)
}

// JobDeparted runs a scheduling pass.
func (p *SPF) JobDeparted(ctx Ctx, _ *workload.Job) { p.pass(ctx) }

// CapacityLost is a no-op: SPF keeps no capacity forecast, and shrinking
// the idle pool admits nothing (Policy).
func (p *SPF) CapacityLost(Ctx, int) {}

// CapacityRestored runs a scheduling pass (Policy).
func (p *SPF) CapacityRestored(ctx Ctx, _ int) { p.pass(ctx) }

// JobKilled runs a scheduling pass; the resubmitted victim re-enters the
// sorted queue through Submit after its backoff (Policy).
func (p *SPF) JobKilled(ctx Ctx, _ *workload.Job, _ int) { p.pass(ctx) }

// pass starts the shortest jobs while they fit.
func (p *SPF) pass(ctx Ctx) {
	m := ctx.Cluster()
	o := ctx.Obs()
	s := ctx.Scratch()
	o.Pass()
	p.blocked = false
	started := 0
	for started < len(p.jobs) {
		head := p.jobs[started]
		if !m.PlaceInto(head.Components, p.fit, s.Place, s.Used) {
			o.HeadMiss(workload.GlobalQueue)
			p.blocked = true
			break
		}
		started++
		ctx.Dispatch(head, s.Place[:len(head.Components)])
	}
	// Copy-down rather than reslice: p.jobs[started:] would walk the
	// slice off its backing array, and Submit's append would then
	// reallocate the queue over and over.
	n := copy(p.jobs, p.jobs[started:])
	clear(p.jobs[n:])
	p.jobs = p.jobs[:n]
}

// Queued returns the number of waiting jobs.
func (p *SPF) Queued() int { return len(p.jobs) }

// QueuedAt returns the global queue length for workload.GlobalQueue.
func (p *SPF) QueuedAt(q int) int {
	if q == workload.GlobalQueue {
		return len(p.jobs)
	}
	return 0
}
