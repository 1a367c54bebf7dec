package policies

import (
	"coalloc/internal/cluster"
	"coalloc/internal/queues"
	"coalloc/internal/workload"
)

// GS is the global-scheduler policy: one global FCFS queue for single- and
// multi-component jobs alike. The scheduler knows the idle counts of every
// cluster and places components Worst Fit on distinct clusters. Under
// strict FCFS a scheduling pass stops at the first head job that does not
// fit (with a single queue, "disable until the next departure" and
// "stop the pass" coincide).
type GS struct {
	q   queues.FIFO
	fit cluster.Fit
	// blocked is the pass-elision watermark: the last pass ended on a
	// head miss. Until capacity changes — and every departure, repair and
	// kill runs a full pass that recomputes it — the same head fails the
	// same deterministic placement, so a Submit pass is a provable no-op.
	blocked bool
}

// NewGS returns the GS policy with the given placement rule (the paper
// uses cluster.WorstFit). SC is the same policy run on a one-cluster
// system scheduling total requests.
func NewGS(fit cluster.Fit) *GS { return &GS{fit: fit} }

// Submit enqueues the job at the global queue and runs a scheduling pass,
// skipping it (with the head miss the unchanged head would re-emit
// compensated) when the head was already blocked and nothing released.
func (p *GS) Submit(ctx Ctx, j *workload.Job) {
	j.Queue = workload.GlobalQueue
	p.q.Push(j)
	if p.blocked {
		skipBlockedPass(ctx)
		return
	}
	p.pass(ctx)
}

// skipBlockedPass counts a pass over a global queue whose head cannot
// start, as the full pass would — the pass and the head miss — and marks
// it skipped. GS and GS-SPF call it behind a blocked head; GS-EASY behind
// a stuck one, whose +Inf reservation returns before any backfill attempt.
func skipBlockedPass(ctx Ctx) {
	o := ctx.Obs()
	o.Pass()
	o.HeadMiss(workload.GlobalQueue)
	o.PassSkipped()
}

// JobDeparted runs a scheduling pass; freed processors may admit the head.
func (p *GS) JobDeparted(ctx Ctx, _ *workload.Job) { p.pass(ctx) }

// CapacityLost is a no-op: GS keeps no capacity forecast, and an idle
// processor going down can never admit the head — placement is monotone in
// the idle vector (Policy).
func (p *GS) CapacityLost(Ctx, int) {}

// CapacityRestored runs a scheduling pass: a repaired processor may admit
// the head, exactly like a departure (Policy).
func (p *GS) CapacityRestored(ctx Ctx, _ int) { p.pass(ctx) }

// JobKilled runs a scheduling pass over the processors the aborted victim
// released (Policy).
func (p *GS) JobKilled(ctx Ctx, _ *workload.Job, _ int) { p.pass(ctx) }

// pass starts jobs from the head of the queue while they fit.
func (p *GS) pass(ctx Ctx) {
	m := ctx.Cluster()
	o := ctx.Obs()
	s := ctx.Scratch()
	o.Pass()
	p.blocked = false
	for {
		head := p.q.Head()
		if head == nil {
			return
		}
		placement, ok := p.placeFor(m, head, s)
		if !ok {
			o.HeadMiss(workload.GlobalQueue)
			p.blocked = true
			return
		}
		p.q.Pop()
		ctx.Dispatch(head, placement)
	}
}

// placeFor finds processors for a job according to its request type. GS is
// the only policy supporting all four types; LS and LP are defined by the
// paper for unordered requests only. The returned placement may live in
// the pass scratch; Dispatch copies it.
func (p *GS) placeFor(m *cluster.Multicluster, j *workload.Job, s *Scratch) ([]int, bool) {
	switch j.Type {
	case workload.Ordered:
		if m.FitsOrdered(j.Components, j.OrderedPlacement) {
			return j.OrderedPlacement, true
		}
		return nil, false
	case workload.Flexible:
		// The split goes into the job's own component buffer, which the
		// arena keeps for the slot's next job; the dispatcher recomputes
		// the extension from it.
		components, placement, ok := m.CarveFlexible(j.TotalSize, j.Components, s.Place)
		if !ok {
			return nil, false
		}
		j.Components = components
		return placement, true
	default: // Unordered and Total (a single pseudo-component).
		if !m.PlaceInto(j.Components, p.fit, s.Place, s.Used) {
			return nil, false
		}
		return s.Place[:len(j.Components)], true
	}
}

// Queued returns the queue length.
func (p *GS) Queued() int { return p.q.Len() }

// QueuedAt returns the global queue length for workload.GlobalQueue and 0
// otherwise.
func (p *GS) QueuedAt(q int) int {
	if q == workload.GlobalQueue {
		return p.q.Len()
	}
	return 0
}
