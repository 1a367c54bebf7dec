package policies

import (
	"fmt"
	"math"
	"sort"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/queues"
	"coalloc/internal/workload"
)

// EASY is GS with EASY (aggressive) backfilling over unordered requests —
// an extension beyond the paper, which notes that LS's multiple queues act
// as "a form of backfilling with a window equal to the number of
// clusters". EASY removes the window limit: when the head of the global
// queue does not fit, it receives a reservation at the earliest time it
// will fit given the known finish times of the running jobs, and any later
// job in the queue may start immediately as long as doing so does not
// delay that reservation.
//
// Because the simulator knows exact service times, the reservation uses
// exact runtimes; a production EASY scheduler relies on user estimates,
// making real backfilling somewhat less effective. This implementation is
// therefore an upper bound on EASY's benefit (see DESIGN.md section 6).
type EASY struct {
	q       queues.FIFO
	fit     cluster.Fit
	running []runInfo // kept sorted by ascending finish time

	// Scratch buffers for earliestFit/fitsVector, sized to the cluster
	// count on first use; they keep the reservation arithmetic
	// allocation-free.
	scrIdle   []int
	scrUsed   []bool
	scrPlace  []int
	scrShadow []int // idle vector at the head's shadow time
	scrTmp    []int

	// stuck is the pass-elision watermark: the head can never fit (its
	// reservation is +Inf even with every running job released). Such a
	// head blocks the queue until capacity grows — no release or failure
	// raises the up capacity, and EASY backfills nothing behind an
	// unreservable head — so every later pass is a provable no-op. The one
	// event that can unstick the head is a repair: CapacityRestored runs a
	// full pass, which re-derives the watermark against the restored
	// capacity (pass clears it on entry).
	stuck bool
}

// runInfo tracks one running job for reservation arithmetic.
type runInfo struct {
	job       *workload.Job
	finish    float64
	comps     []int
	placement []int
}

// dropRunning removes j's record from a running set, keeping the order of
// the others, and returns it; ok is false when j is not in the set.
func dropRunning(running *[]runInfo, j *workload.Job) (r runInfo, ok bool) {
	for i := range *running {
		if r = (*running)[i]; r.job == j {
			*running = append((*running)[:i], (*running)[i+1:]...)
			return r, true
		}
	}
	return runInfo{}, false
}

// NewEASY returns the EASY-backfilling global scheduler. On a one-cluster
// system it is the SC-EASY reference.
func NewEASY(fit cluster.Fit) *EASY { return &EASY{fit: fit} }

// Submit enqueues the job at the global queue and runs a scheduling pass.
func (p *EASY) Submit(ctx Ctx, j *workload.Job) {
	j.Queue = workload.GlobalQueue
	p.q.Push(j)
	if p.stuck {
		skipBlockedPass(ctx)
		return
	}
	p.pass(ctx)
}

// JobDeparted drops the job from the running set and runs a pass. The
// removal preserves the finish-time ordering.
func (p *EASY) JobDeparted(ctx Ctx, j *workload.Job) {
	dropRunning(&p.running, j)
	if p.stuck {
		skipBlockedPass(ctx)
		return
	}
	p.pass(ctx)
}

// JobKilled removes the aborted victim from the running set and runs a
// full pass over the released processors (Policy). The kill
// shrank cluster c's capacity by one, which keeps a stuck watermark valid
// — the head fits even less than before — but the reservation arithmetic
// holds no state beyond the running set, so removal plus a pass is the
// whole repair.
func (p *EASY) JobKilled(ctx Ctx, victim *workload.Job, _ int) {
	if _, ok := dropRunning(&p.running, victim); !ok {
		panic(fmt.Sprintf("policies: killed job %d not in the running set", victim.ID))
	}
	p.pass(ctx)
}

// CapacityLost is a no-op (Policy): EASY derives every
// reservation from the live idle vector and the running set, so a silent
// failure needs no state repair, and the shrink can admit nothing —
// placement is monotone in the idle vector. A stuck watermark stays valid
// for the same reason.
func (p *EASY) CapacityLost(Ctx, int) {}

// CapacityRestored runs a full pass (Policy): the repaired
// processor may admit the head or a backfill candidate, and — unlike every
// other event — it raises the up capacity, so the pass re-derives the
// stuck watermark from scratch.
func (p *EASY) CapacityRestored(ctx Ctx, _ int) { p.pass(ctx) }

// start dispatches a job and inserts it into the running set in
// finish-time order, so earliestFit never needs to sort. The runInfo
// records j.Placement — the stable copy Dispatch is contracted to leave
// on the job — because the placement argument may live in pass scratch.
func (p *EASY) start(ctx Ctx, j *workload.Job, placement []int) {
	ctx.Dispatch(j, placement)
	r := runInfo{
		job:       j,
		finish:    ctx.Now() + j.RemainingTime(),
		comps:     j.Components,
		placement: j.Placement,
	}
	i := sort.Search(len(p.running), func(k int) bool { return p.running[k].finish > r.finish })
	p.running = append(p.running, runInfo{})
	copy(p.running[i+1:], p.running[i:])
	p.running[i] = r
}

// pass starts head jobs while they fit, then backfills behind a blocked
// head without delaying its reservation.
func (p *EASY) pass(ctx Ctx) {
	m := ctx.Cluster()
	o := ctx.Obs()
	s := ctx.Scratch()
	o.Pass()
	// Re-derive the stuck watermark from scratch: a pass that drains the
	// queue or reserves a finite start leaves it clear, and phase 2 sets it
	// again when the head still can never fit. Fault-free this cannot flip
	// a true watermark back (capacity never grows), but after a repair the
	// stale verdict must not survive the pass.
	p.stuck = false
	// Phase 1: plain FCFS starts from the head.
	for {
		head := p.q.Head()
		if head == nil {
			return
		}
		if !m.PlaceInto(head.Components, p.fit, s.Place, s.Used) {
			o.HeadMiss(workload.GlobalQueue)
			break
		}
		p.q.Pop()
		p.start(ctx, head, s.Place[:len(head.Components)])
	}
	// Phase 2: the head is blocked; compute its reservation.
	head := p.q.Head()
	shadow := p.earliestFit(m, head.Components, ctx.Now(), p.fit)
	if math.IsInf(shadow, 1) {
		// The head can never fit (a component exceeds every cluster);
		// it blocks the queue forever, exactly as plain FCFS would.
		p.stuck = true
		return
	}
	if dt := ctx.Dec(); dt != nil {
		// Record the reservation with the starts the unchosen fit rules
		// find on the same running-set release schedule. The probes reuse
		// the earliestFit scratch sequentially, before phase 3 builds the
		// shadow idle vector.
		dt.BeginAlts()
		for _, f := range dectrace.FitRules {
			if f == p.fit {
				continue
			}
			if at := p.earliestFit(m, head.Components, ctx.Now(), f); !math.IsInf(at, 1) {
				dt.AddAlt(f.String(), at, nil)
			}
		}
		dt.Reserve(ctx.Now(), head, shadow, nil)
	}
	// Phase 3: scan the rest of the queue for backfill candidates.
	// Pop/re-push is avoided: collect indices to start, then rebuild.
	//
	// Whether a candidate delays the head reduces to one vector test
	// against the idle state at the shadow time. With the candidate
	// hypothetically running, the head still fails everywhere it failed
	// before (idle only shrank), so its reservation moves iff it no
	// longer fits exactly at the shadow — that is, iff it does not fit in
	// the shadow idle vector minus the candidate's components. The
	// precomputed vector replaces the per-candidate O(running) release
	// walk (and the alloc/release round trip) the hypothetical
	// re-reservation used to take.
	nc := m.NumClusters()
	shadowIdle := p.scrShadow[:nc]
	for c := range shadowIdle {
		shadowIdle[c] = m.Idle(c)
	}
	for i := range p.running {
		r := &p.running[i]
		if r.finish > shadow {
			break // sorted by finish: nothing further releases by the shadow
		}
		for ci, c := range r.placement {
			shadowIdle[c] += r.comps[ci]
		}
	}
	s.Started = s.Started[:0]
	p.q.ForEachWaiting(func(idx int, j *workload.Job) bool {
		if idx == 0 {
			return true // the head itself
		}
		o.BackfillAttempt()
		if !m.PlaceInto(j.Components, p.fit, s.Place, s.Used) {
			return true
		}
		placement := s.Place[:len(j.Components)]
		// A candidate finishing by the shadow time cannot delay the head:
		// its processors are back before (or exactly when) the head's
		// reserved start, so the idle vector the head sees at the shadow
		// is unchanged and the head still fits there.
		if ctx.Now()+j.RemainingTime() <= shadow {
			p.start(ctx, j, placement)
			o.BackfillSuccess()
			s.Started = append(s.Started, j)
			return true
		}
		// The candidate outlives the shadow: it delays the head unless
		// the head fits at the shadow with the candidate's processors
		// still held.
		tmp := p.scrTmp[:nc]
		copy(tmp, shadowIdle)
		for ci, c := range placement {
			tmp[c] -= j.Components[ci]
		}
		if !p.fitsVector(tmp, head.Components, p.fit) {
			ctx.Dec().BackfillReject(ctx.Now(), j, p.fit, placement)
			return true
		}
		p.start(ctx, j, placement)
		// The candidate holds its processors past the shadow, so later
		// candidates see them missing from the shadow idle state too.
		for ci, c := range placement {
			shadowIdle[c] -= j.Components[ci]
		}
		o.BackfillSuccess()
		s.Started = append(s.Started, j)
		return true
	})
	if len(s.Started) > 0 {
		p.q.RemoveAll(s.Started)
	}
}

// earliestFit returns the earliest time the components fit under the given
// placement rule, given the current idle state plus the future releases of
// the running jobs. It returns +Inf when the components cannot fit even on
// an empty system. The policy's own rule is p.fit; the decision tracer
// probes the others against the same release schedule.
//
// The running set is already sorted by finish time, so the releases are
// walked in order directly — no per-call sort, no per-call allocation.
func (p *EASY) earliestFit(m *cluster.Multicluster, comps []int, now float64, fit cluster.Fit) float64 {
	n := m.NumClusters()
	if cap(p.scrIdle) < n {
		p.scrIdle = make([]int, n)
		p.scrUsed = make([]bool, n)
		p.scrPlace = make([]int, n)
		p.scrShadow = make([]int, n)
		p.scrTmp = make([]int, n)
	}
	idle := p.scrIdle[:n]
	for c := range idle {
		idle[c] = m.Idle(c)
	}
	if p.fitsVector(idle, comps, fit) {
		return now
	}
	for i := range p.running {
		r := &p.running[i]
		for ci, c := range r.placement {
			idle[c] += r.comps[ci]
		}
		if p.fitsVector(idle, comps, fit) {
			return r.finish
		}
	}
	return math.Inf(1)
}

// fitsVector is the greedy distinct-cluster fit test on a plain idle
// vector — the same rule Multicluster.Place applies, evaluated on a
// hypothetical state (see cluster.PlaceVector). It uses the
// policy's scratch buffers, which earliestFit sizes before the first call.
func (p *EASY) fitsVector(idle []int, comps []int, fit cluster.Fit) bool {
	if len(comps) > len(idle) {
		return false
	}
	return cluster.PlaceVector(idle, comps, fit, p.scrPlace[:len(comps)], p.scrUsed[:len(idle)])
}

// Queued returns the queue length.
func (p *EASY) Queued() int { return p.q.Len() }

// QueuedAt returns the global queue length for workload.GlobalQueue.
func (p *EASY) QueuedAt(q int) int {
	if q == workload.GlobalQueue {
		return p.q.Len()
	}
	return 0
}
