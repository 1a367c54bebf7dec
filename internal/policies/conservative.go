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
// The free-capacity profile of the running jobs is maintained
// incrementally: a job start reserves its window in the base profile, a
// departure merely lets the clock advance past the release breakpoint the
// reservation already encoded, and each full scheduling pass trims the
// base to the current time and clones it into scratch storage for the
// pass's queue reservations. The equivalence of the incremental base and a
// rebuild-from-scratch is pinned by TestIncrementalProfileMatchesRebuilt.
//
// On top of that, the reservations themselves are retained between passes.
// Between two capacity-changing events the forecast does not change — a
// departure merely reaches a release breakpoint the profile already
// encoded — so re-deriving every queued job's reservation would reproduce
// it exactly (the recomputation argument in DESIGN.md §13). A pass
// therefore runs in one of two modes: a fast pass fires the reservations
// whose start time has arrived (a dispatch straight from the stored
// placement, no profile scan) and evaluates only jobs newly inside the
// lookahead window; a full pass re-derives everything from the base
// profile. Any event the stability argument does not cover — an early
// release, an overdue-departure tie, the very first pass — invalidates
// resvOK and forces the full pass. TestConservativeElisionEquivalence pins
// the two modes bit-identical over random streams.
type Conservative struct {
	name      string
	q         queues.FIFO
	fit       cluster.Fit
	lookahead int
	running   []runInfo
	base      *profile // incremental forecast of the running jobs' releases
	scratch   profile  // working profile; between passes it holds the reservations
	availVec  []int    // per-cluster up-processor counts, for the never-fits exit

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
// (DefaultLookahead is the conventional 32).
func NewConservative(fit cluster.Fit, lookahead int) *Conservative {
	if lookahead < 1 {
		panic(fmt.Sprintf("policies: NewConservative lookahead %d < 1", lookahead))
	}
	return &Conservative{name: "GS-CONS", fit: fit, lookahead: lookahead}
}

// NewSCConservative returns the single-cluster conservative-backfilling
// reference policy.
func NewSCConservative(lookahead int) *Conservative {
	p := NewConservative(cluster.WorstFit, lookahead)
	p.name = "SC-CONS"
	return p
}

// Name returns "GS-CONS" or "SC-CONS".
func (p *Conservative) Name() string { return p.name }

// Submit enqueues the job and runs a scheduling pass. With retained
// reservations the common case is the fast pass: existing reservations are
// unchanged (no capacity event since the last pass), so only the newcomer
// — when it falls inside the lookahead window — needs a profile scan.
func (p *Conservative) Submit(ctx Ctx, j *workload.Job) {
	j.Queue = workload.GlobalQueue
	p.q.Push(j)
	if elidePasses {
		if p.fastPass(ctx) {
			return
		}
		if p.tryRepair(ctx) && p.fastPass(ctx) {
			return
		}
	}
	p.pass(ctx)
}

// JobDeparted drops the job from the running set and runs a pass. The
// departure fires exactly at the release breakpoint the profile already
// encodes, so the retained reservations stay valid: the fast pass starts
// the jobs whose reserved time has arrived and scans nothing else. A
// departure before its forecast finish (an early release) changes the
// profile and forces the full pass.
func (p *Conservative) JobDeparted(ctx Ctx, j *workload.Job) {
	for i := range p.running {
		if p.running[i].job == j {
			r := p.running[i]
			p.running = append(p.running[:i], p.running[i+1:]...)
			if r.finish > ctx.Now() {
				p.releaseEarly(ctx.Now(), r)
				p.resvOK = false
				p.repairOK = false
			}
			break
		}
	}
	p.recomputeNextFinish()
	if elidePasses {
		if p.fastPass(ctx) {
			return
		}
		if p.tryRepair(ctx) && p.fastPass(ctx) {
			return
		}
	}
	p.pass(ctx)
}

// JobKilled repairs the policy state after a failure on cluster c aborted
// the victim (policies.FaultAware): the victim leaves the running set, its
// remaining window returns to the base profile through the same early-
// release path a preemptive departure takes, and the profile's capacity on
// c drops by the processor the failure consumed. A kill is neither an
// arrival nor a departure — the retained-reservation stability argument
// does not cover it — so the elision state is invalidated wholesale and a
// full pass re-derives every reservation against the repaired forecast.
func (p *Conservative) JobKilled(ctx Ctx, victim *workload.Job, c int) {
	for i := range p.running {
		if p.running[i].job == victim {
			r := p.running[i]
			p.running = append(p.running[:i], p.running[i+1:]...)
			p.releaseEarly(ctx.Now(), r)
			p.recomputeNextFinish()
			p.adjustCapacity(ctx, c, -1)
			return
		}
	}
	panic(fmt.Sprintf("policies: killed job %d not in the running set", victim.ID))
}

// CapacityLost folds a silent failure — one idle processor of cluster c
// went down — into the forecast (policies.FaultAware). The shrink can
// admit nothing (placement is monotone in the idle vector), but the stored
// reservations were derived against the larger capacity and may now
// overlap windows that no longer exist, so the state is re-derived.
func (p *Conservative) CapacityLost(ctx Ctx, c int) { p.adjustCapacity(ctx, c, -1) }

// CapacityRestored folds a repaired processor of cluster c back into the
// forecast (policies.FaultAware). The full pass it forces also re-derives
// every never-fits (+Inf) reservation, which is only valid per capacity
// regime — see neverFits.
func (p *Conservative) CapacityRestored(ctx Ctx, c int) { p.adjustCapacity(ctx, c, +1) }

// adjustCapacity applies a one-processor capacity change on cluster c: the
// base profile's whole horizon shifts by delta, the never-fits vector
// follows, the retained reservations are invalidated (the staleness theory
// covers only arrivals and departures), and a full pass rebuilds them.
// State not yet built (before the first pass) needs no adjustment — it is
// constructed from the multicluster's post-event capacity when first used.
func (p *Conservative) adjustCapacity(ctx Ctx, c, delta int) {
	if p.base != nil {
		p.base.trim(ctx.Now())
		p.base.shiftCapacity(c, delta)
	}
	if p.availVec != nil {
		p.availVec[c] += delta
	}
	p.resvOK = false
	p.repairOK = false
	p.pass(ctx)
}

// releaseEarly returns a job's remaining reservation to the base profile
// when it leaves the running set before its forecast finish time. The
// event engine fires departures exactly at the forecast finish, so for
// ordinary departures this is a no-op; a fault kill (JobKilled) is the
// real user — an abort releases the processors mid-window, and the
// remaining window must come back before the capacity shift is applied.
func (p *Conservative) releaseEarly(now float64, r runInfo) {
	if p.base == nil || r.finish <= now {
		return
	}
	p.base.trim(now)
	end := p.base.segmentAt(r.finish, true)
	for s := 0; s < end; s++ {
		seg := p.base.seg(s)
		for i, c := range r.placement {
			seg[c] += r.comps[i]
		}
	}
	// The job's release breakpoint at r.finish is now redundant unless
	// another job's boundary shares it: merge it away so the profile stays
	// in the canonical form a rebuild produces (no equal adjacent segments).
	if end > 0 && end < p.base.n {
		a, b := p.base.seg(end-1), p.base.seg(end)
		equal := true
		for c := range a {
			if a[c] != b[c] {
				equal = false
				break
			}
		}
		if equal {
			p.base.removeBreak(end)
		}
	}
}

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

// passProfile produces the working profile for one full scheduling pass:
// the incrementally maintained base, trimmed to now and cloned into
// scratch. Jobs whose finish time has arrived but whose departure event
// has not yet fired still hold their processors, so their release — which
// the base encoded when they started — is subtracted back out, exactly as
// a rebuild-from-scratch (which skips finish <= now) would produce.
func (p *Conservative) passProfile(m *cluster.Multicluster, now float64) *profile {
	if p.base == nil {
		p.base = newProfile(m, now, p.running)
	} else {
		p.base.trim(now)
	}
	prof := p.base.cloneInto(&p.scratch)
	for i := range p.running {
		r := &p.running[i]
		if r.finish > now {
			continue
		}
		for s := 0; s < prof.n; s++ {
			seg := prof.seg(s)
			for ci, c := range r.placement {
				seg[c] -= r.comps[ci]
			}
		}
	}
	return prof
}

// ensureCap builds the per-cluster up-capacity vector on first use; fault
// events keep it current through adjustCapacity. Without faults it is the
// static cluster sizes.
func (p *Conservative) ensureCap(m *cluster.Multicluster) {
	if p.availVec == nil {
		p.availVec = make([]int, m.NumClusters())
		for c := range p.availVec {
			p.availVec[c] = m.Avail(c)
		}
	}
}

// neverFits reports that the components cannot fit even with every up
// processor idle. The placement rule is monotone in the idle vector, so a
// failure at full up capacity implies failure on every profile window —
// exactly the queries earliestStart would answer +Inf — without scanning
// any segments. Under fault injection the vector tracks the post-failure
// capacity, so the verdict holds only for the current capacity regime: a
// repair raises the vector and forces a full pass (CapacityRestored), which
// re-derives every +Inf entry against the restored capacity.
func (p *Conservative) neverFits(m *cluster.Multicluster, comps []int, s *Scratch) bool {
	p.ensureCap(m)
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

// start dispatches a job, adds it to the running set, folds its window
// into the base profile, and tracks the earliest forecast finish.
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
	p.base.reserve(j.Components, j.Placement, now, dur)
	if now+dur < p.nextFinish {
		p.nextFinish = now + dur
	}
}

// evalFast evaluates one job newly inside the lookahead window against the
// retained scratch profile — exactly the work the full pass would do for
// it at the same queue position, with every earlier job's reservation
// already in the profile. Attempt counters are emitted in bulk by the
// caller.
func (p *Conservative) evalFast(ctx Ctx, m *cluster.Multicluster, prof *profile, s *Scratch, idx int, j *workload.Job, now float64, nc int) {
	o := ctx.Obs()
	if p.neverFits(m, j.Components, s) {
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
// fired (the full pass would subtract its overdue holding), or a
// reservation somehow missed in the past.
func (p *Conservative) fastPass(ctx Ctx) bool {
	if !p.resvOK {
		return false
	}
	L := p.q.Len()
	if L == 0 {
		return true // a pass over an empty queue does nothing
	}
	now := ctx.Now()
	if now >= p.nextFinish {
		return false
	}
	for i := range p.resvs {
		if p.resvs[i].t < now {
			return false
		}
	}
	m := ctx.Cluster()
	o := ctx.Obs()
	o.Pass()
	nc := len(p.availVec)
	prof := &p.scratch
	prof.trim(now)
	p.base.trim(now)
	s := ctx.Scratch()
	s.Started = s.Started[:0]

	// Fire due reservations: the full pass would re-derive each at exactly
	// its stored time and placement, so start them directly. Firing past an
	// unfired finite reservation moves the fired window into the base —
	// into the derivation input of the jobs ahead of it, which saw it as
	// behind them — so such a pass cannot keep its reservations wholesale;
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
		// window — covered == 0 — gets its miss from evalFast instead.)
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
			p.evalFast(ctx, m, prof, s, idx, j, now, nc)
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
// entry is re-derived against a fresh clone of the base (reproducing the
// full pass's input exactly) and compared with the stored reservation:
// start times provably cannot move (the start was placed to delay no
// reservation), but a placement tie may break differently, and any
// mismatch falls back to the full pass. Two classes of entries skip even
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
	if now >= p.nextFinish {
		return false
	}
	for i := range p.resvs {
		if p.resvs[i].t < now {
			return false
		}
	}
	nc := len(p.availVec)
	bound := p.staleBound
	if bound > len(p.resvs) {
		bound = len(p.resvs)
	}
	p.base.trim(now)
	prof := p.base.cloneInto(&p.repair)
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
// base and walks the queue in FCFS order, dispatching the jobs whose
// earliest feasible start is now and reserving future windows for the
// rest, which become the retained state the fast passes run on.
func (p *Conservative) pass(ctx Ctx) {
	p.resvOK = false
	p.repairOK = false
	p.resvs = p.resvs[:0]
	p.resvPlace = p.resvPlace[:0]
	p.sawFinite, p.staleStart = false, false
	p.staleBound, p.staleWinEnd = 0, 0
	if p.q.Empty() {
		return
	}
	m := ctx.Cluster()
	p.ensureCap(m)
	nc := len(p.availVec)
	now := ctx.Now()
	o := ctx.Obs()
	o.Pass()
	prof := p.passProfile(m, now)
	// A running job at its forecast finish whose departure event has not
	// yet fired (an event-order tie) makes passProfile subtract its holding
	// from the whole forecast — a temporary distortion no later pass will
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
		if p.neverFits(m, j.Components, s) {
			// Can never fit; it holds no window (it blocks nothing: all
			// other jobs keep their own reservations).
			p.appendResv(j, math.Inf(1), 0, nil, nc)
			return true
		}
		dur := j.RemainingTime()
		if dt := ctx.Dec(); dt != nil {
			p.probeAlts(dt, prof, j, dur)
		}
		t, placement := prof.earliestStart(j.Components, dur, p.fit)
		if math.IsInf(t, 1) {
			p.appendResv(j, t, 0, nil, nc)
			return true
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
