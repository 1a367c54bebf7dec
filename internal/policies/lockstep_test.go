package policies

import (
	"math"
	"sort"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// TestConservativeLockstepAudit runs two Conservative policies through one
// random stream in lockstep — one forced to full passes, one with elision —
// and after every event checks (a) the dispatch decisions match exactly,
// and (b) whenever the elided policy claims its retained reservations are
// valid (resvOK), re-deriving every stored reservation from a fresh clone
// of the base profile reproduces the stored start time and placement. The
// audit is the direct statement of the retained-reservation invariant the
// fast pass and tryRepair rely on; the end-to-end equivalence test
// (TestConservativeElisionEquivalence) only observes its consequences.
func TestConservativeLockstepAudit(t *testing.T) {
	for _, lookahead := range []int{2, 4, DefaultLookahead} {
		for seed := uint64(1); seed <= 6; seed++ {
			lockstepAudit(t, seed, lookahead, 0)
		}
	}
}

// TestConservativeLockstepAuditFaults reruns the lockstep audit with the
// three fault hooks of Policy mixed into the stream, applied identically to
// both policies: every fault invalidates the retained state and forces a
// full pass, and the audit verifies the re-derived reservations whenever
// the elided side publishes them again.
func TestConservativeLockstepAuditFaults(t *testing.T) {
	for _, lookahead := range []int{2, DefaultLookahead} {
		for seed := uint64(1); seed <= 6; seed++ {
			lockstepAudit(t, seed, lookahead, 0.12)
		}
	}
}

func lockstepAudit(t *testing.T, seed uint64, lookahead int, faultRate float64) {
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
	fit := []cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit}[r.Intn(3)]
	var pA, pB *Conservative
	if nc == 1 {
		pA, pB = NewConservative(cluster.WorstFit, lookahead), NewConservative(cluster.WorstFit, lookahead)
	} else {
		pA, pB = NewConservative(fit, lookahead), NewConservative(fit, lookahead)
	}

	finish := map[*workload.Job]float64{}
	loggedA, loggedB := 0, 0
	var nextID int64
	jobsB := map[int64]*workload.Job{}

	audit := func(what string) {
		t.Helper()
		if !pB.resvOK {
			return
		}
		var tmp profile
		pB.base.trim(ctxB.now)
		prof := pB.base.cloneInto(&tmp)
		for i := range pB.resvs {
			rv := pB.resvs[i]
			j := rv.job
			if math.IsInf(rv.t, 1) {
				continue // never-fits: +Inf is invariant, holds no window
			}
			tt, place := prof.earliestStart(j.Components, j.RemainingTime(), pB.fit)
			if tt != rv.t {
				t.Fatalf("seed %d lookahead %d: audit %s at t=%g: resv %d job %d stored t=%g, re-derived %g",
					seed, lookahead, what, ctxB.now, i, j.ID, rv.t, tt)
			}
			for c := 0; c < len(j.Components); c++ {
				if place[c] != pB.resvPlace[i*nc+c] {
					t.Fatalf("seed %d lookahead %d: audit %s at t=%g: resv %d job %d stored place %v, re-derived %v",
						seed, lookahead, what, ctxB.now, i, j.ID, pB.resvPlace[i*nc:i*nc+len(j.Components)], place)
				}
			}
			prof.reserve(j.Components, place, tt, rv.dur)
		}
	}

	checkSync := func(what string) {
		t.Helper()
		audit(what)
		newA := ctxA.dispatched[loggedA:]
		newB := ctxB.dispatched[loggedB:]
		if len(newA) != len(newB) {
			t.Fatalf("seed %d lookahead %d: after %s at t=%g: full dispatched %d jobs, elided %d",
				seed, lookahead, what, ctxA.now, len(newA), len(newB))
		}
		for i := range newA {
			if newA[i].ID != newB[i].ID {
				t.Fatalf("seed %d lookahead %d: after %s at t=%g: full started job %d, elided %d",
					seed, lookahead, what, ctxA.now, newA[i].ID, newB[i].ID)
			}
			for c := range newA[i].Placement {
				if newA[i].Placement[c] != newB[i].Placement[c] {
					t.Fatalf("seed %d lookahead %d: after %s at t=%g job %d: placement %v vs %v",
						seed, lookahead, what, ctxA.now, newA[i].ID, newA[i].Placement, newB[i].Placement)
				}
			}
		}
		for ; loggedA < len(ctxA.dispatched); loggedA++ {
			j := ctxA.dispatched[loggedA]
			finish[j] = ctxA.now + j.ExtendedServiceTime
		}
		loggedB = len(ctxB.dispatched)
	}

	submitBoth := func() {
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
		jA := svcJob(nextID, svc, comps...)
		jB := svcJob(nextID, svc, comps...)
		jobsB[nextID] = jB
		prev := SetPassElision(false)
		pA.Submit(ctxA, jA)
		SetPassElision(true)
		pB.Submit(ctxB, jB)
		SetPassElision(prev)
	}
	finishBoth := func(j *workload.Job) {
		jB := jobsB[j.ID]
		prev := SetPassElision(false)
		ctxA.finish(pA, j)
		SetPassElision(true)
		ctxB.finish(pB, jB)
		SetPassElision(prev)
	}

	// faultEvent applies one fault event identically to both policies,
	// reporting whether an applicable one existed; the audit runs after it
	// like after any other event. Victim choice is deterministic (highest ID
	// on the cluster) because the mock never sets StartTime.
	faultEvent := func(now float64) bool {
		t.Helper()
		c := r.Intn(nc)
		both := func(what string, ev func(p *Conservative, ctx *mockCtx)) {
			ctxA.now, ctxB.now = now, now
			prev := SetPassElision(false)
			ev(pA, ctxA)
			SetPassElision(true)
			ev(pB, ctxB)
			SetPassElision(prev)
			checkSync(what)
		}
		switch r.Intn(3) {
		case 0: // silent failure
			if ctxA.m.Idle(c) == 0 {
				return false
			}
			both("silent failure", func(p *Conservative, ctx *mockCtx) {
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
			vB := jobsB[victim.ID]
			both("kill", func(p *Conservative, ctx *mockCtx) {
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
			both("repair", func(p *Conservative, ctx *mockCtx) {
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
		if dj == nil || (pA.Queued() < 3*lookahead && r.Float64() < 0.6) {
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
}
