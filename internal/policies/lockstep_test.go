package policies

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/obs"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// fullPasses clears p's retained-reservation state and returns p. fastPass
// and tryRepair then return before touching any state, so the next call
// falls through to the full pass. Called before every call, it makes p the
// full-pass twin of an instance that elides.
func fullPasses(p *Conservative) *Conservative {
	p.resvOK, p.repairOK = false, false
	return p
}

// stripElisionMetrics removes the sched.passes_skipped and
// sched.passes_repaired lines — the only metrics allowed to differ between
// elided and full-pass runs.
func stripElisionMetrics(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "sched.passes_skipped") || strings.Contains(l, "sched.passes_repaired") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// fullPassTwin drives one policy instance with its pass elision off:
// before every call it clears the instance's elision state (clear), and
// where the elision sits in Submit itself, as in LS and LP, it replaces
// Submit by the push and a full pass (submit). Run beside an instance
// that elides, it is that instance's full-pass twin.
type fullPassTwin struct {
	Policy
	clear  func()
	submit func(Ctx, *workload.Job)
}

func (f fullPassTwin) Submit(ctx Ctx, j *workload.Job) {
	f.clear()
	if f.submit != nil {
		f.submit(ctx, j)
		return
	}
	f.Policy.Submit(ctx, j)
}

func (f fullPassTwin) JobDeparted(ctx Ctx, j *workload.Job) {
	f.clear()
	f.Policy.JobDeparted(ctx, j)
}

func (f fullPassTwin) CapacityLost(ctx Ctx, c int) {
	f.clear()
	f.Policy.CapacityLost(ctx, c)
}

func (f fullPassTwin) CapacityRestored(ctx Ctx, c int) {
	f.clear()
	f.Policy.CapacityRestored(ctx, c)
}

func (f fullPassTwin) JobKilled(ctx Ctx, victim *workload.Job, c int) {
	f.clear()
	f.Policy.JobKilled(ctx, victim, c)
}

// lockstepCase is one policy family of the lockstep audit.
type lockstepCase struct {
	name string
	// pair builds an instance that elides and its full-pass twin for a
	// system of nc clusters.
	pair func(nc int, fit cluster.Fit) (elided, full Policy)
	// audit, when set, checks the eliding instance's retained state
	// after every event.
	audit func(elided Policy, ctx *mockCtx) error
	// backlog is the queue length below which arrivals are favoured.
	backlog int
}

func noClear() {}

// lockstepFamilies are the families whose elision the lockstep audit
// checks besides GS-CONS (conservativeCase). GS and GS-SPF elide a Submit
// behind a blocked head, GS-EASY every pass over a head the up capacity
// can never hold, and LS and LP a Submit into a queue their pass does not
// visit.
var lockstepFamilies = []lockstepCase{
	{name: "GS", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		f := NewGS(fit)
		return NewGS(fit), fullPassTwin{Policy: f, clear: func() { f.blocked = false }}
	}},
	{name: "GS-SPF", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		f := NewSPF(fit)
		return NewSPF(fit), fullPassTwin{Policy: f, clear: func() { f.blocked = false }}
	}},
	{name: "GS-EASY", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		f := NewEASY(fit)
		return NewEASY(fit), fullPassTwin{Policy: f, clear: func() { f.stuck = false }}
	}},
	{name: "LS", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		return NewLS(nc, fit), lsTwin(NewLS(nc, fit))
	}},
	{name: "LS-sorted", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		return NewLSSortedReenable(nc, fit), lsTwin(NewLSSortedReenable(nc, fit))
	}},
	{name: "LP", backlog: 12, pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
		f := NewLP(nc, fit)
		return NewLP(nc, fit), fullPassTwin{Policy: f, clear: noClear, submit: func(ctx Ctx, j *workload.Job) {
			if j.Multi() {
				j.Queue = workload.GlobalQueue
				f.global.Push(j)
			} else {
				f.locals[j.Queue].Push(j)
			}
			f.pass(ctx)
		}}
	}},
}

func lsTwin(f *LS) fullPassTwin {
	return fullPassTwin{Policy: f, clear: noClear, submit: func(ctx Ctx, j *workload.Job) {
		f.qs[j.Queue].Push(j)
		f.pass(ctx)
	}}
}

// conservativeCase is GS-CONS with the given lookahead. Its twin clears
// the retained reservations before every call (fullPasses), and its audit
// re-derives every retained reservation whenever the eliding instance
// claims them valid.
func conservativeCase(lookahead int) lockstepCase {
	return lockstepCase{
		name:    fmt.Sprintf("GS-CONS lookahead %d", lookahead),
		backlog: 3 * lookahead,
		pair: func(nc int, fit cluster.Fit) (Policy, Policy) {
			f := NewConservative(fit, lookahead)
			return NewConservative(fit, lookahead), fullPassTwin{Policy: f, clear: func() { fullPasses(f) }}
		},
		audit: func(elided Policy, ctx *mockCtx) error { return auditReservations(elided.(*Conservative), ctx) },
	}
}

// auditReservations re-derives every reservation p retains, in order, on
// a profile rebuilt from ctx's multicluster and p's running set, and
// reports the first whose stored start time or placement differs. It
// checks nothing while p does not claim its reservations valid (resvOK).
func auditReservations(p *Conservative, ctx *mockCtx) error {
	if !p.resvOK {
		return nil
	}
	prof := new(profile).rebuild(ctx.m, ctx.now, p.running)
	nc := len(p.availVec)
	for i := range p.resvs {
		rv := p.resvs[i]
		j := rv.job
		if math.IsInf(rv.t, 1) {
			continue // never-fits: +Inf is invariant, holds no window
		}
		tt, place := prof.earliestStart(j.Components, j.RemainingTime(), p.fit)
		if tt != rv.t {
			return fmt.Errorf("resv %d job %d stored t=%g, re-derived %g", i, j.ID, rv.t, tt)
		}
		for c := 0; c < len(j.Components); c++ {
			if place[c] != p.resvPlace[i*nc+c] {
				return fmt.Errorf("resv %d job %d stored place %v, re-derived %v",
					i, j.ID, p.resvPlace[i*nc:i*nc+len(j.Components)], place)
			}
		}
		prof.reserve(j.Components, place, tt, rv.dur)
	}
	return nil
}

// TestConservativeLockstepAudit runs GS-CONS and its full-pass twin
// through one random stream in lockstep (lockstepAudit) for every
// lookahead regime: 1 = head-only, small values that force constant
// window slide-in, and the default. Its audit is the direct statement of
// the retained-reservation invariant the fast pass and tryRepair rely on.
// Every run must skip passes.
func TestConservativeLockstepAudit(t *testing.T) {
	for _, lookahead := range []int{1, 2, 4, DefaultLookahead} {
		for seed := uint64(1); seed <= 12; seed++ {
			if lockstepAudit(t, conservativeCase(lookahead), seed, 0) == 0 {
				t.Fatalf("lookahead %d seed %d: the eliding policy skipped no passes", lookahead, seed)
			}
		}
	}
}

// TestConservativeLockstepAuditFaults reruns the GS-CONS lockstep audit
// with the three fault hooks of Policy mixed into the stream: every fault
// invalidates the retained state and forces a full pass, and the audit
// verifies the re-derived reservations whenever the elided side publishes
// them again.
func TestConservativeLockstepAuditFaults(t *testing.T) {
	for _, lookahead := range []int{2, DefaultLookahead} {
		for seed := uint64(1); seed <= 6; seed++ {
			if lockstepAudit(t, conservativeCase(lookahead), seed, 0.12) == 0 {
				t.Fatalf("lookahead %d seed %d: the eliding policy skipped no passes", lookahead, seed)
			}
		}
	}
}

// TestLockstepAudit runs every other eliding family beside its full-pass
// twin (lockstepFamilies), fault-free and with faults, kills and
// resubmissions mixed in. Each family must skip passes over its seeds,
// except GS-EASY fault-free: with the full capacity up, every job fits
// the empty system, so its head is never stuck.
func TestLockstepAudit(t *testing.T) {
	for _, c := range lockstepFamilies {
		for _, rate := range []float64{0, 0.12} {
			t.Run(fmt.Sprintf("%s/faults%g", c.name, rate), func(t *testing.T) {
				skipped := 0
				for seed := uint64(1); seed <= 12; seed++ {
					skipped += lockstepAudit(t, c, seed, rate)
				}
				if skipped == 0 && (c.name != "GS-EASY" || rate > 0) {
					t.Error("the eliding policy skipped no passes")
				}
			})
		}
	}
}

// lockstepAudit runs an instance that elides and its full-pass twin
// (lockstepCase.pair) through one random stream in lockstep: arrivals,
// departures, early departures and, at faultRate, silent failures, kills
// (whose victims are resubmitted later, some with checkpointed progress)
// and repairs, each applied identically to both. After every event it
// checks that both dispatched the same jobs on the same placements, and
// runs the case's audit. At the end the JSONL disable and enable records
// and every counter except the elision counters must match. It returns
// the number of passes the eliding instance skipped.
func lockstepAudit(t *testing.T, lc lockstepCase, seed uint64, faultRate float64) int {
	t.Helper()
	r := rng.NewStream(seed)
	nc := 1 + r.Intn(4)
	size := 16 + r.Intn(17)
	sizes := make([]int, nc)
	for i := range sizes {
		sizes[i] = size
	}
	ctxA := newMockCtx(sizes...) // full passes
	ctxB := newMockCtx(sizes...) // elided
	var traceA, traceB bytes.Buffer
	ctxA.obs, ctxB.obs = obs.New(&traceA), obs.New(&traceB)
	fit := []cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit}[r.Intn(3)]
	if nc == 1 {
		fit = cluster.WorstFit
	}
	pB, pA := lc.pair(nc, fit)
	where := fmt.Sprintf("%s seed %d faults %g", lc.name, seed, faultRate)

	finish := map[*workload.Job]float64{}
	loggedA, loggedB := 0, 0
	var nextID int64
	jobsB := map[int64]*workload.Job{}
	var retry []*workload.Job // killed jobs of A awaiting resubmission

	checkSync := func(what string) {
		t.Helper()
		if lc.audit != nil {
			if err := lc.audit(pB, ctxB); err != nil {
				t.Fatalf("%s: audit after %s at t=%g: %v", where, what, ctxB.now, err)
			}
		}
		newA := ctxA.dispatched[loggedA:]
		newB := ctxB.dispatched[loggedB:]
		if len(newA) != len(newB) {
			t.Fatalf("%s: after %s at t=%g: full dispatched %d jobs, elided %d",
				where, what, ctxA.now, len(newA), len(newB))
		}
		for i := range newA {
			if newA[i].ID != newB[i].ID {
				t.Fatalf("%s: after %s at t=%g: full started job %d, elided %d",
					where, what, ctxA.now, newA[i].ID, newB[i].ID)
			}
			for c := range newA[i].Placement {
				if newA[i].Placement[c] != newB[i].Placement[c] {
					t.Fatalf("%s: after %s at t=%g job %d: placement %v vs %v",
						where, what, ctxA.now, newA[i].ID, newA[i].Placement, newB[i].Placement)
				}
			}
		}
		for ; loggedA < len(ctxA.dispatched); loggedA++ {
			j := ctxA.dispatched[loggedA]
			finish[j] = ctxA.now + j.RemainingTime()
		}
		loggedB = len(ctxB.dispatched)
	}

	submitBoth := func() {
		if len(retry) > 0 && r.Float64() < 0.5 {
			jA := retry[0]
			retry = retry[1:]
			jB := jobsB[jA.ID]
			var ck float64
			if r.Intn(2) == 0 {
				ck = math.Floor(r.Float64() * jA.ExtendedServiceTime)
			}
			jA.Checkpointed, jB.Checkpointed = ck, ck
			pA.Submit(ctxA, jA)
			pB.Submit(ctxB, jB)
			return
		}
		nextID++
		n := 1 + r.Intn(nc)
		comps := make([]int, n)
		for i := range comps {
			comps[i] = 1 + r.Intn(size)
		}
		for i := 1; i < n; i++ {
			if comps[i] > comps[i-1] {
				comps[i] = comps[i-1]
			}
		}
		svc := 1 + r.Float64()*100
		q := r.Intn(nc)
		jA := svcJob(nextID, svc, comps...)
		jB := svcJob(nextID, svc, comps...)
		jA.Queue, jB.Queue = q, q
		jobsB[nextID] = jB
		pA.Submit(ctxA, jA)
		pB.Submit(ctxB, jB)
	}
	finishBoth := func(j *workload.Job) {
		ctxA.finish(pA, j)
		ctxB.finish(pB, jobsB[j.ID])
	}

	// faultEvent applies one fault event identically to both policies,
	// reporting whether an applicable one existed; the checks run after
	// it like after any other event. Victim choice is deterministic
	// (highest ID on the cluster) because the mock never sets StartTime.
	faultEvent := func(now float64) bool {
		t.Helper()
		c := r.Intn(nc)
		both := func(what string, ev func(p Policy, ctx *mockCtx)) {
			ctxA.now, ctxB.now = now, now
			ev(pA, ctxA)
			ev(pB, ctxB)
			checkSync(what)
		}
		switch r.Intn(3) {
		case 0: // silent failure
			if ctxA.m.Idle(c) == 0 {
				return false
			}
			both("silent failure", func(p Policy, ctx *mockCtx) {
				ctx.m.Fail(c)
				p.CapacityLost(ctx, c)
			})
		case 1: // kill a running job with a component on c
			var victim *workload.Job
			for j := range finish {
				for _, pc := range j.Placement {
					if pc == c && (victim == nil || j.ID > victim.ID) {
						victim = j
						break
					}
				}
			}
			if victim == nil {
				return false
			}
			delete(finish, victim)
			retry = append(retry, victim)
			vB := jobsB[victim.ID]
			both("kill", func(p Policy, ctx *mockCtx) {
				v := victim
				if p == pB {
					v = vB
				}
				ctx.m.Release(v.Components, v.Placement)
				ctx.m.Fail(c)
				p.JobKilled(ctx, v, c)
			})
		case 2: // repair
			if ctxA.m.Down(c) == 0 {
				return false
			}
			both("repair", func(p Policy, ctx *mockCtx) {
				ctx.m.Repair(c)
				p.CapacityRestored(ctx, c)
			})
		}
		return true
	}

	for step := 0; step < 200; step++ {
		var dj *workload.Job
		dt := math.Inf(1)
		for j, f := range finish {
			if f < dt || (f == dt && j.ID < dj.ID) {
				dj, dt = j, f
			}
		}
		if faultRate > 0 && r.Float64() < faultRate {
			// A fault arrives strictly before the next departure fires.
			now := ctxA.now
			if dj != nil {
				now += r.Float64() * (dt - now)
			} else {
				now += r.Float64() * 20
			}
			if faultEvent(now) {
				continue
			}
		}
		if dj != nil && r.Float64() < 0.10 {
			run := make([]*workload.Job, 0, len(finish))
			for j := range finish {
				run = append(run, j)
			}
			sort.Slice(run, func(a, b int) bool { return run[a].ID < run[b].ID })
			ej := run[r.Intn(len(run))]
			if f := finish[ej]; f > ctxA.now {
				now := ctxA.now + r.Float64()*(math.Min(dt, f)-ctxA.now)
				ctxA.now, ctxB.now = now, now
			}
			delete(finish, ej)
			finishBoth(ej)
			checkSync("early departure")
			continue
		}
		if dj == nil || (pA.Queued() < lc.backlog && r.Float64() < 0.6) {
			var now float64
			if dj != nil && r.Float64() < 0.2 {
				now = dt
			} else if dj != nil {
				now = ctxA.now + r.Float64()*(dt-ctxA.now)
			} else {
				now = ctxA.now + r.Float64()*20
			}
			ctxA.now, ctxB.now = now, now
			submitBoth()
			checkSync("arrival")
		} else {
			ctxA.now, ctxB.now = dt, dt
			delete(finish, dj)
			finishBoth(dj)
			checkSync("departure")
		}
	}

	if err := ctxA.obs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ctxB.obs.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, b := traceA.String(), traceB.String(); a != b {
		t.Fatalf("%s: queue transitions diverge\n--- full passes ---\n%s\n--- elided ---\n%s", where, a, b)
	}
	var metA, metB strings.Builder
	if err := ctxA.obs.WriteText(&metA); err != nil {
		t.Fatal(err)
	}
	if err := ctxB.obs.WriteText(&metB); err != nil {
		t.Fatal(err)
	}
	if a, b := stripElisionMetrics(metA.String()), stripElisionMetrics(metB.String()); a != b {
		t.Fatalf("%s: metrics diverge\n--- full passes ---\n%s\n--- elided ---\n%s", where, a, b)
	}
	return int(ctxB.obs.Metrics.Counter("sched.passes_skipped").Value())
}
