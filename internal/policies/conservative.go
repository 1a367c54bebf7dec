package policies

import (
	"fmt"
	"math"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/queues"
	"coalloc/internal/workload"
)

// DefaultLookahead is the default bound on the number of queued jobs that
// receive reservations per conservative-backfilling pass (the -lookahead
// knob on mcsim/mcexp).
const DefaultLookahead = 32

// resv is one queued job's standing reservation: the start time and
// duration of the window it holds in the pass profile. t is +Inf for a job
// whose components can never fit (it holds no window). The placement lives
// in the policy's flat resvPlace arena, slot-aligned with the resvs slice.
type resv struct {
	job *workload.Job
	t   float64
	dur float64
}

// Conservative is GS with conservative backfilling: every queued job holds
// a reservation, and a job may start early only if doing so delays no
// earlier job's reservation. Compared to EASY (which protects only the
// queue head), conservative backfilling trades some throughput for strict
// FCFS start-time guarantees — the classic comparison in the backfilling
// literature, provided here as an ablation alongside GS-EASY.
//
// Each full scheduling pass rebuilds the free-capacity profile of the
// running jobs from the live idle vector (profile.rebuild, into retained
// scratch storage) and lays the queue reservations into it.
//
// The reservations themselves are retained between passes. Between two
// capacity-changing events the forecast does not change — a
// departure merely reaches a release breakpoint the profile already
// encoded — so re-deriving every queued job's reservation would reproduce
// it exactly (the recomputation argument in DESIGN.md §13). A pass
// therefore runs in one of two modes: a fast pass fires the reservations
// whose start time has arrived (a dispatch straight from the stored
// placement, no profile scan) and evaluates only jobs newly inside the
// lookahead window; a full pass rebuilds the profile and re-derives
// everything. Any event the stability argument does not cover — an early
// release, a fault, an overdue-departure tie, the very first pass —
// invalidates resvOK and forces the full pass. TestConservativeLockstepAudit
// pins the two modes bit-identical against a full-pass twin over random
// streams, and TestReferenceMatchesReplay (package core) checks whole
// replays against a plain reference scheduler.
type Conservative struct {
	q         queues.FIFO
	fit       cluster.Fit
	lookahead int
	running   []runInfo
	scratch   profile // working profile; between passes it holds the reservations
	availVec  []int   // per-cluster up capacity at the last full pass, for the never-fits exit

	// Retained-reservation state. resvs holds one entry per reserved
	// queued job, in FCFS order, covering a prefix of the queue; resvPlace
	// is the stride-nc placement arena backing it. resvOK marks the state
	// (and the scratch profile) as reusable; nextFinish is the earliest
	// forecast finish of the running set, the guard against
	// overdue-departure ties.
	resvOK     bool
	nextFinish float64
	resvs      []resv
	resvPlace  []int
	fired      []int // per-pass scratch: resv indices fired

	// Per-pass staleness tracking. A backfill start that happens while some
	// finite reservation is outstanding shrinks the profile underneath that
	// reservation: its start time provably cannot move (the backfill was
	// placed to not delay it), but a re-derivation may break placement ties
	// differently — so such a pass must not publish its reservations
	// wholesale. Firing a stored reservation is exempt: it converts a
	// reserved window into an identical running window, leaving the
	// forecast unchanged.
	//
	// Staleness is a prefix property: a start at queue position k grows the
	// derivation input only of the entries ahead of it (position > k saw
	// the started job's window as a reservation already). staleBound is the
	// number of leading resv entries a stale pass invalidated, and
	// staleWinEnd the latest end time of the windows it started — together
	// they let the next pass repair the prefix instead of re-deriving the
	// whole queue (tryRepair).
	sawFinite   bool
	staleStart  bool
	staleBound  int
	staleWinEnd float64
	repairOK    bool
	repair      profile // tryRepair's working profile (scratch stays retained)
}

// NewConservative returns the conservative-backfilling global scheduler.
// lookahead bounds the reserved queue prefix per pass; it must be >= 1
// (DefaultLookahead is the conventional 32). On a one-cluster system it is
// the SC-CONS reference.
func NewConservative(fit cluster.Fit, lookahead int) *Conservative {
	if lookahead < 1 {
		panic(fmt.Sprintf("policies: NewConservative lookahead %d < 1", lookahead))
	}
	return &Conservative{fit: fit, lookahead: lookahead}
}

// Submit enqueues the job and runs a scheduling pass. With retained
// reservations the common case is the fast pass: existing reservations are
// unchanged (no capacity event since the last pass), so only the newcomer
// — when it falls inside the lookahead window — needs a profile scan.
func (p *Conservative) Submit(ctx Ctx, j *workload.Job) {
	j.Queue = workload.GlobalQueue
	p.q.Push(j)
	p.schedule(ctx)
}

// schedule runs one scheduling opportunity: the fast pass from the
// retained reservations, else the fast pass after repairing a stale
// prefix, else the full pass.
func (p *Conservative) schedule(ctx Ctx) {
	if !p.fastPass(ctx) && !(p.tryRepair(ctx) && p.fastPass(ctx)) {
		p.pass(ctx)
	}
}

// JobDeparted drops the job from the running set and runs a pass. The
// departure fires exactly at the release breakpoint the profile already
// encodes, so the retained reservations stay valid: the fast pass starts
// the jobs whose reserved time has arrived and scans nothing else. A
// departure before its forecast finish (an early release) changes the
// profile and forces the full pass.
func (p *Conservative) JobDeparted(ctx Ctx, j *workload.Job) {
	if r, ok := dropRunning(&p.running, j); ok && r.finish > ctx.Now() {
		p.resvOK = false
		p.repairOK = false
	}
	p.recomputeNextFinish()
	p.schedule(ctx)
}

// JobKilled repairs the policy state after a failure aborted the victim
// (Policy): the victim leaves the running set and a full pass runs. A kill
// is neither an arrival nor a departure — the retained-reservation
// stability argument does not cover it — so the pass re-derives every
// reservation against a forecast rebuilt from the multicluster, which
// already holds the victim's released processors and the failed one.
func (p *Conservative) JobKilled(ctx Ctx, victim *workload.Job, c int) {
	if _, ok := dropRunning(&p.running, victim); !ok {
		panic(fmt.Sprintf("policies: killed job %d not in the running set", victim.ID))
	}
	p.recomputeNextFinish()
	p.pass(ctx)
}

// CapacityLost reacts to a silent failure — one idle processor of cluster
// c went down (Policy). The shrink can admit nothing (placement is
// monotone in the idle vector), but the stored reservations were derived
// against the larger capacity and may now overlap windows that no longer
// exist, so a full pass re-derives them.
func (p *Conservative) CapacityLost(ctx Ctx, c int) { p.pass(ctx) }

// CapacityRestored reacts to a repaired processor of cluster c (Policy).
// The full pass it runs also re-derives every never-fits (+Inf)
// reservation, which is only valid per capacity regime — see neverFits.
func (p *Conservative) CapacityRestored(ctx Ctx, c int) { p.pass(ctx) }

// recomputeNextFinish refreshes the earliest forecast finish of the
// running set.
func (p *Conservative) recomputeNextFinish() {
	p.nextFinish = math.Inf(1)
	for i := range p.running {
		if p.running[i].finish < p.nextFinish {
			p.nextFinish = p.running[i].finish
		}
	}
}

// neverFits reports that the components cannot fit even with every up
// processor idle. The placement rule is monotone in the idle vector, so a
// failure at full up capacity implies failure on every profile window —
// exactly the queries earliestStart would answer +Inf — without scanning
// any segments. Every full pass copies the up capacity into the vector,
// and every fault event runs a full pass, so the verdict holds for the
// current capacity regime: a repair's pass (CapacityRestored) re-derives
// every +Inf entry against the restored capacity.
func (p *Conservative) neverFits(comps []int, s *Scratch) bool {
	return !cluster.PlaceVector(p.availVec, comps, p.fit, s.Place, s.Used)
}

// appendResv records a reservation, copying the placement into the arena
// slot aligned with its index.
func (p *Conservative) appendResv(j *workload.Job, t, dur float64, place []int, nc int) {
	if !math.IsInf(t, 1) {
		p.sawFinite = true
	}
	i := len(p.resvs)
	p.resvs = append(p.resvs, resv{job: j, t: t, dur: dur})
	if cap(p.resvPlace) < (i+1)*nc {
		grown := make([]int, i*nc, 2*(i+1)*nc)
		copy(grown, p.resvPlace)
		p.resvPlace = grown
	}
	p.resvPlace = p.resvPlace[:(i+1)*nc]
	copy(p.resvPlace[i*nc:], place)
}

// start dispatches a job, adds it to the running set, and tracks the
// earliest forecast finish. The job's window is already in the working
// profile: it was reserved there as the job's reservation.
func (p *Conservative) start(ctx Ctx, j *workload.Job, placement []int, now, dur float64) {
	// placement may be profile or arena scratch; Dispatch leaves the
	// stable copy in j.Placement, which the persistent records use.
	ctx.Dispatch(j, placement)
	p.running = append(p.running, runInfo{
		job:       j,
		finish:    now + dur,
		comps:     j.Components,
		placement: j.Placement,
	})
	if now+dur < p.nextFinish {
		p.nextFinish = now + dur
	}
}

// evalJob is the per-job reservation step: it starts the job at queue
// position idx when its earliest start on prof is now, and otherwise
// records its reservation (+Inf when it can never fit) and holds the
// window in prof. The full pass runs it over the lookahead prefix; the
// fast pass runs it for the jobs newly inside the window, against the
// retained profile that already holds every earlier reservation — the
// same input the full pass would see. Backfill attempts are counted by
// the caller.
func (p *Conservative) evalJob(ctx Ctx, prof *profile, s *Scratch, idx int, j *workload.Job, now float64, nc int) {
	o := ctx.Obs()
	if p.neverFits(j.Components, s) {
		// Can never fit; it holds no window (it blocks nothing: all
		// other jobs keep their own reservations).
		p.appendResv(j, math.Inf(1), 0, nil, nc)
		return
	}
	dur := j.RemainingTime()
	if dt := ctx.Dec(); dt != nil {
		p.probeAlts(dt, prof, j, dur)
	}
	t, placement := prof.earliestStart(j.Components, dur, p.fit)
	if math.IsInf(t, 1) {
		p.appendResv(j, t, 0, nil, nc)
		return
	}
	prof.reserve(j.Components, placement, t, dur)
	if idx == 0 && t > now {
		o.HeadMiss(workload.GlobalQueue)
	}
	if t == now {
		if idx > 0 {
			o.BackfillSuccess()
		}
		if p.sawFinite {
			p.markStale(len(p.resvs), now+dur)
		}
		p.start(ctx, j, placement, now, dur)
		s.Started = append(s.Started, j)
	} else {
		p.appendResv(j, t, dur, placement, nc)
		ctx.Dec().Reserve(now, j, t, placement)
	}
}

// probeAlts accumulates, as reservation alternatives, the starts the
// unchosen fit rules find on the same working profile the chosen
// reservation is about to be derived from. Every probed placement lives in
// profile scratch and is clobbered by the next earliestStart query — AddAlt
// copies it immediately, and the probes run before the chosen query for the
// same reason. The probes only read the profile, so the chosen derivation
// is unchanged (the tracing-enabled guardrail pins this).
func (p *Conservative) probeAlts(dt *dectrace.Tracer, prof *profile, j *workload.Job, dur float64) {
	dt.BeginAlts()
	for _, f := range dectrace.FitRules {
		if f == p.fit {
			continue
		}
		if t, place := prof.earliestStart(j.Components, dur, f); !math.IsInf(t, 1) {
			dt.AddAlt(f.String(), t, place)
		}
	}
}

// fastPass handles one scheduling opportunity from the retained
// reservations, reporting whether it could. It fires the reservations
// whose start time has arrived (dispatching straight from the stored
// placements), extends reservation coverage to jobs newly inside the
// lookahead window, and emits exactly the counters the full pass would.
// It refuses — leaving the caller to run the full pass — whenever the
// reservation-stability argument does not apply: no valid retained state,
// a running job at or past its forecast finish whose departure has not
// fired (the full pass would see it hold its processors over the whole
// forecast), or a reservation somehow missed in the past.
func (p *Conservative) fastPass(ctx Ctx) bool {
	if !p.resvOK {
		return false
	}
	L := p.q.Len()
	if L == 0 {
		return true // a pass over an empty queue does nothing
	}
	now := ctx.Now()
	if !p.retainedCurrent(now) {
		return false
	}
	o := ctx.Obs()
	o.Pass()
	nc := len(p.availVec)
	prof := &p.scratch
	prof.trim(now)
	s := ctx.Scratch()
	s.Started = s.Started[:0]

	// Fire due reservations: the full pass would re-derive each at exactly
	// its stored time and placement, so start them directly. Firing past an
	// unfired finite reservation moves the fired window into the running
	// set — into the derivation input of the jobs ahead of it, which saw it
	// as behind them — so such a pass cannot keep its reservations wholesale;
	// the kept entries ahead of the fired one become the stale prefix.
	p.sawFinite, p.staleStart = false, false
	p.staleBound, p.staleWinEnd = 0, 0
	p.fired = p.fired[:0]
	headStarted := false
	unfiredFinite := false
	kept := 0
	for i := range p.resvs {
		r := p.resvs[i]
		if r.t != now {
			if !math.IsInf(r.t, 1) {
				unfiredFinite = true
			}
			kept++
			continue
		}
		if unfiredFinite {
			p.markStale(kept, now+r.dur)
		}
		j := r.job
		p.start(ctx, j, p.resvPlace[i*nc:i*nc+len(j.Components)], now, r.dur)
		if i == 0 {
			headStarted = true
		} else {
			o.BackfillSuccess()
		}
		s.Started = append(s.Started, j)
		p.fired = append(p.fired, i)
	}
	if len(p.fired) > 0 {
		w, f := 0, 0
		for i := range p.resvs {
			if f < len(p.fired) && p.fired[f] == i {
				f++
				continue
			}
			if w != i {
				p.resvs[w] = p.resvs[i]
				copy(p.resvPlace[w*nc:(w+1)*nc], p.resvPlace[i*nc:(i+1)*nc])
			}
			w++
		}
		p.resvs = p.resvs[:w]
		p.resvPlace = p.resvPlace[:w*nc]
	}

	// Counter compensation for the re-derivation the full pass would run
	// over the first min(L, lookahead) queue positions.
	evaluated := L
	if evaluated > p.lookahead {
		evaluated = p.lookahead
	}
	o.BackfillAttempts(evaluated - 1)
	if L > p.lookahead {
		o.LookaheadTruncated()
	}
	for i := range p.resvs {
		if !math.IsInf(p.resvs[i].t, 1) {
			p.sawFinite = true
			break
		}
	}
	covered := len(p.fired) + len(p.resvs)
	if covered > 0 && !headStarted && !math.IsInf(p.resvs[0].t, 1) {
		// The head stayed queued on a finite future reservation: the full
		// pass re-emits its miss every time. (A head newly inside the
		// window — covered == 0 — gets its miss from evalJob instead.)
		o.HeadMiss(workload.GlobalQueue)
	}
	if covered < evaluated {
		// Jobs newly inside the window (a newcomer, or jobs a start shifted
		// in) get their first evaluation, in FCFS order, against a profile
		// already holding every earlier reservation.
		p.q.ForEachWaiting(func(idx int, j *workload.Job) bool {
			if idx < covered {
				return true
			}
			if idx >= evaluated {
				return false
			}
			p.evalJob(ctx, prof, s, idx, j, now, nc)
			return true
		})
	}
	if len(s.Started) > 0 {
		p.q.RemoveAll(s.Started)
	}
	if p.staleStart {
		p.resvOK = false
		p.repairOK = true
	}
	o.PassSkipped()
	return true
}

// retainedCurrent is the precondition fastPass and tryRepair share for
// serving a pass from retained reservations: no running job has reached
// its forecast finish with its departure still unfired (the full pass
// would see it hold its processors over the whole forecast), and no
// reservation lies in the past.
func (p *Conservative) retainedCurrent(now float64) bool {
	if now >= p.nextFinish {
		return false
	}
	for i := range p.resvs {
		if p.resvs[i].t < now {
			return false
		}
	}
	return true
}

// markStale records that the pass just started a job with bound resv
// entries ahead of it: those entries form the stale prefix the next pass
// must re-verify, and the started window's end extends the horizon beyond
// which stored reservations provably cannot have changed.
func (p *Conservative) markStale(bound int, winEnd float64) {
	p.staleStart = true
	if bound > p.staleBound {
		p.staleBound = bound
	}
	if winEnd > p.staleWinEnd {
		p.staleWinEnd = winEnd
	}
}

// tryRepair recovers the retained reservations after a stale pass by
// re-verifying only the invalidated prefix, reporting whether the state is
// valid again (the caller then runs the ordinary fast pass).
//
// A start with stored entries ahead of it grows only those entries'
// derivation inputs — entries behind it already saw its window — so the
// suffix beyond staleBound needs no work at all. Within the prefix, each
// entry is re-derived against a profile rebuilt from the running set
// (reproducing the full pass's input exactly) and compared with the
// stored reservation: start times provably cannot move (the start was
// placed to delay no reservation), but a placement tie may break
// differently, and any mismatch falls back to the full pass. Two classes of entries skip even
// the re-derivation: never-fits entries (+Inf is invariant under capacity
// loss), and entries whose whole window lies at or beyond staleWinEnd —
// the placement depends only on the per-cluster minima over the entry's
// own window, which no started window reaches.
func (p *Conservative) tryRepair(ctx Ctx) bool {
	if !p.repairOK {
		return false
	}
	p.repairOK = false
	if p.q.Empty() {
		return false
	}
	now := ctx.Now()
	if !p.retainedCurrent(now) {
		return false
	}
	nc := len(p.availVec)
	bound := p.staleBound
	if bound > len(p.resvs) {
		bound = len(p.resvs)
	}
	prof := p.repair.rebuild(ctx.Cluster(), now, p.running)
	ok := true
	p.q.ForEachWaiting(func(idx int, j *workload.Job) bool {
		if idx >= bound {
			return false
		}
		r := p.resvs[idx]
		if r.job != j {
			ok = false
			return false
		}
		if math.IsInf(r.t, 1) {
			return true
		}
		if r.t >= p.staleWinEnd {
			prof.reserve(j.Components, p.resvPlace[idx*nc:idx*nc+len(j.Components)], r.t, r.dur)
			return true
		}
		t, place := prof.earliestStart(j.Components, r.dur, p.fit)
		if t != r.t {
			ok = false
			return false
		}
		for c := range j.Components {
			if place[c] != p.resvPlace[idx*nc+c] {
				ok = false
				return false
			}
		}
		prof.reserve(j.Components, place, t, r.dur)
		return true
	})
	if !ok {
		return false
	}
	p.resvOK = true
	ctx.Obs().PassRepaired()
	return true
}

// pass is the full re-derivation: it rebuilds the working profile from the
// running set and walks the queue in FCFS order, dispatching the jobs whose
// earliest feasible start is now and reserving future windows for the
// rest, which become the retained state the fast passes run on.
func (p *Conservative) pass(ctx Ctx) {
	p.resvOK = false
	p.repairOK = false
	p.resvs = p.resvs[:0]
	p.resvPlace = p.resvPlace[:0]
	p.sawFinite, p.staleStart = false, false
	p.staleBound, p.staleWinEnd = 0, 0
	m := ctx.Cluster()
	p.availVec = p.availVec[:0]
	for c := 0; c < m.NumClusters(); c++ {
		p.availVec = append(p.availVec, m.Avail(c))
	}
	if p.q.Empty() {
		return
	}
	nc := len(p.availVec)
	now := ctx.Now()
	o := ctx.Obs()
	o.Pass()
	prof := p.scratch.rebuild(m, now, p.running)
	// A running job at its forecast finish whose departure event has not
	// yet fired (an event-order tie) holds its processors over the whole
	// rebuilt forecast — a temporary distortion no later pass will
	// reproduce. Reservations derived against it must not be retained.
	overdue := false
	for i := range p.running {
		if p.running[i].finish <= now {
			overdue = true
			break
		}
	}
	s := ctx.Scratch()
	s.Started = s.Started[:0]
	truncated := false
	p.q.ForEachWaiting(func(idx int, j *workload.Job) bool {
		if idx >= p.lookahead {
			truncated = true
			return false
		}
		if idx > 0 {
			o.BackfillAttempt()
		}
		p.evalJob(ctx, prof, s, idx, j, now, nc)
		return true
	})
	if truncated {
		o.LookaheadTruncated()
	}
	if len(s.Started) > 0 {
		p.q.RemoveAll(s.Started)
	}
	p.recomputeNextFinish()
	p.resvOK = !overdue && !p.staleStart
	p.repairOK = !overdue && p.staleStart
}

// Queued returns the queue length.
func (p *Conservative) Queued() int { return p.q.Len() }

// QueuedAt returns the global queue length for workload.GlobalQueue.
func (p *Conservative) QueuedAt(q int) int {
	if q == workload.GlobalQueue {
		return p.q.Len()
	}
	return 0
}
