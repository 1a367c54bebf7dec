package policies

import (
	"fmt"

	"coalloc/internal/cluster"
	"coalloc/internal/queues"
	"coalloc/internal/workload"
)

// LP is the local-priority policy: single-component jobs are distributed
// among per-cluster local queues, and all multi-component jobs go to one
// global queue. The local schedulers have priority — the global scheduler
// may start jobs only while at least one local queue is empty.
//
// Disable bookkeeping follows the paper: a queue (local or global) whose
// head does not fit is disabled until the next departure. At a departure,
// if at least one local queue is empty, the global queue and the local
// queues are all enabled, starting with the global queue; otherwise only
// the local queues are enabled, and the global queue joins the visit list
// as soon as a local queue becomes empty.
type LP struct {
	locals        []queues.FIFO
	global        queues.FIFO
	set           *queues.EnableSet // local queues only
	globalEnabled bool              // head-miss disable state of the global queue
	fit           cluster.Fit
}

// NewLP returns the LP policy for a system of the given number of clusters.
func NewLP(clusters int, fit cluster.Fit) *LP {
	if clusters <= 0 {
		panic(fmt.Sprintf("policies: NewLP(%d)", clusters))
	}
	return &LP{
		locals:        make([]queues.FIFO, clusters),
		set:           queues.NewEnableSet(clusters),
		globalEnabled: true,
		fit:           fit,
	}
}

// Submit routes multi-component jobs to the global queue and
// single-component jobs to their local queue, then runs a scheduling pass.
func (p *LP) Submit(ctx Ctx, j *workload.Job) {
	// Pass elision: a pass leaves every enabled local queue empty, and an
	// enabled, eligible global queue empty too (a nonempty visited head
	// either starts or disables its queue); between passes only pushes
	// happen, so eligibility (some local queue empty) can only shrink. A
	// job landing in a disabled queue — or in a global queue the local
	// priority keeps ineligible — is therefore invisible to its pass:
	// nothing can start, a provable no-op.
	elide := false
	if j.Multi() {
		j.Queue = workload.GlobalQueue
		p.global.Push(j)
		elide = !p.globalEnabled || !p.anyLocalEmpty()
	} else {
		if j.Queue < 0 || j.Queue >= len(p.locals) {
			panic(fmt.Sprintf("policies: LP job %d routed to queue %d of %d", j.ID, j.Queue, len(p.locals)))
		}
		p.locals[j.Queue].Push(j)
		elide = !p.set.IsEnabled(j.Queue)
	}
	if elide {
		o := ctx.Obs()
		o.Pass()
		o.PassSkipped()
		return
	}
	p.pass(ctx)
}

// JobDeparted re-enables the queues (global first, per the paper) and runs
// a pass.
func (p *LP) JobDeparted(ctx Ctx, _ *workload.Job) {
	re := p.set.EnableAll()
	if o := ctx.Obs(); o.Enabled() {
		now := ctx.Now()
		if !p.globalEnabled {
			o.QueueEnabled(now, workload.GlobalQueue)
		}
		for _, q := range re {
			o.QueueEnabled(now, q)
		}
	}
	p.globalEnabled = true
	p.pass(ctx)
}

// CapacityLost is a no-op: LP keeps no capacity forecast, and shrinking
// the idle pool admits nothing (Policy).
func (p *LP) CapacityLost(Ctx, int) {}

// CapacityRestored re-enables the queues global-first, the same ordering
// contract as a departure (Policy).
func (p *LP) CapacityRestored(ctx Ctx, _ int) { p.JobDeparted(ctx, nil) }

// JobKilled reacts to an aborted job like a departure (Policy).
func (p *LP) JobKilled(ctx Ctx, _ *workload.Job, _ int) { p.JobDeparted(ctx, nil) }

// anyLocalEmpty reports whether some local queue is empty — the paper's
// precondition for the global scheduler to run jobs.
func (p *LP) anyLocalEmpty() bool {
	for i := range p.locals {
		if p.locals[i].Empty() {
			return true
		}
	}
	return false
}

// pass visits the global queue (when eligible) and then the enabled local
// queues, in rounds, until a full round starts nothing.
func (p *LP) pass(ctx Ctx) {
	m := ctx.Cluster()
	o := ctx.Obs()
	s := ctx.Scratch()
	o.Pass()
	for {
		progress := false
		// The global queue is visited first, and only while it is both
		// enabled (no unserviced head miss) and eligible (some local
		// queue empty).
		if p.globalEnabled && p.anyLocalEmpty() {
			if head := p.global.Head(); head != nil {
				if m.PlaceInto(head.Components, p.fit, s.Place, s.Used) {
					p.global.Pop()
					ctx.Dispatch(head, s.Place[:len(head.Components)])
					progress = true
				} else {
					p.globalEnabled = false
					o.HeadMiss(workload.GlobalQueue)
					o.QueueDisabled(ctx.Now(), workload.GlobalQueue)
				}
			}
		}
		round := append(s.Round[:0], p.set.Enabled()...)
		for _, q := range round {
			head := p.locals[q].Head()
			if head == nil {
				continue
			}
			if m.FitsOn(q, head.Components[0]) {
				p.locals[q].Pop()
				s.Place[0] = q
				ctx.Dispatch(head, s.Place[:1])
				progress = true
			} else {
				o.HeadMiss(q)
				ctx.Dec().LocalMiss(ctx.Now(), head, m, q)
				if p.set.Disable(q) && o.Enabled() {
					o.QueueDisabled(ctx.Now(), q)
				}
			}
		}
		if !progress {
			return
		}
	}
}

// Queued returns the total number of waiting jobs (global + local).
func (p *LP) Queued() int {
	n := p.global.Len()
	for i := range p.locals {
		n += p.locals[i].Len()
	}
	return n
}

// QueuedAt returns the length of local queue q, or of the global queue for
// workload.GlobalQueue.
func (p *LP) QueuedAt(q int) int {
	if q == workload.GlobalQueue {
		return p.global.Len()
	}
	if q < 0 || q >= len(p.locals) {
		return 0
	}
	return p.locals[q].Len()
}
