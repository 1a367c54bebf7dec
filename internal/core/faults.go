package core

import (
	"fmt"

	"coalloc/internal/faults"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// faultState carries the fault-injection machinery of one run: the injector
// (streams and stats) and a registry of every running job with its pending
// departure event. The registry exists because aborting a job on failure
// must cancel its departure — the one place the simulation needs to keep an
// event handle beyond the scheduling call.
type faultState struct {
	inj *faults.Injector

	// running and departures are parallel: departures[i] is the pending
	// departure event of running[i]. Entries leave the registry exactly
	// when the departure fires (untrack, from depart) or when an abort
	// cancels it (removeAt, from abortRunning) — a handle is never held
	// past its event's lifetime. Were one kept, it would be inert: the
	// kernel's handles are generation-checked (TestFiredSlotHandleGoesStale).
	running    []*workload.Job
	departures []sim.Event

	// killedPending counts jobs aborted by a failure whose resubmission
	// backoff has not yet elapsed. They are in the system but neither
	// queued nor running, so Result.FinalQueue adds this count.
	killedPending int
}

// newFaultState builds the injector from the run's RNG source. The fault
// streams are named independently of the workload streams, so attaching
// faults never perturbs the sampled job sequence.
func newFaultState(spec faults.Spec, clusters int, src *rng.Source) *faultState {
	return &faultState{inj: faults.NewInjector(spec, clusters, src)}
}

// track registers a dispatched job and its departure event.
func (f *faultState) track(j *workload.Job, ev sim.Event) {
	f.running = append(f.running, j)
	f.departures = append(f.departures, ev)
}

// untrack drops a departed job from the registry. The scan runs backward:
// departures correlate with recent dispatches, so the match is near the
// tail. A missing job is a bookkeeping bug and panics.
func (f *faultState) untrack(j *workload.Job) {
	for i := len(f.running) - 1; i >= 0; i-- {
		if f.running[i] == j {
			f.removeAt(i)
			return
		}
	}
	panic(fmt.Sprintf("core: departed job %d missing from the fault registry", j.ID))
}

// removeAt swap-removes registry entry i. Swap-remove perturbs the
// registry's order, which is safe because victim selection is a total order
// over the jobs themselves (start time, then ID) — see faults.SelectVictim.
func (f *faultState) removeAt(i int) {
	last := len(f.running) - 1
	f.running[i] = f.running[last]
	f.running[last] = nil
	f.running = f.running[:last]
	f.departures[i] = f.departures[last]
	f.departures[last] = sim.Event{} // no stale handle left in the vacated slot
	f.departures = f.departures[:last]
}

// nodeFail applies one failure event on cluster c: reschedule the cluster's
// next failure (the Poisson process never stops), then shrink capacity by
// one processor. An idle processor absorbs the failure silently; a fully
// busy cluster costs the most recently started occupant its job; a fully
// down cluster skips the failure. The repair is scheduled only when a
// processor actually went down.
func (s *simulation) nodeFail(c int) {
	now := s.eng.Now()
	s.eng.ScheduleAfter(s.flt.inj.NextFailure(c), evNodeFail, c)
	if s.m.Avail(c) == 0 {
		s.flt.inj.Stats.Skipped++
		s.obs.FaultSkipped(c)
		return
	}
	var victim *workload.Job
	if s.m.Idle(c) == 0 {
		idx := faults.SelectVictim(s.flt.running, c)
		victim = s.flt.running[idx]
		s.abortRunning(idx, c, now)
	}
	s.m.Fail(c)
	s.flt.inj.Stats.Failures++
	s.availCap.Set(now, float64(s.m.TotalAvail()))
	s.obs.NodeFailed(now, c, s.m.TotalAvail())
	s.eng.ScheduleAfter(s.flt.inj.RepairDelay(c), evNodeRepair, c)
	// Notified after Fail so the policy sees the post-failure capacity:
	// with a victim, the abort released its processors on every cluster
	// except the one the failure just consumed; without one, an idle
	// processor went down silently and only the capacity forecast of a
	// backfilling policy needs the news.
	if victim != nil {
		s.pol.JobKilled(s, victim, c)
		s.sampleQueueDepth()
	} else {
		s.pol.CapacityLost(s, c)
	}
}

// abortRunning kills registry entry idx because of a failure on cluster c:
// cancel its departure, release its processors, undo its work accounting,
// advance its checkpoint, and schedule its resubmission after a capped
// exponential backoff. The job keeps its original arrival time, so its
// eventual response time includes everything the failure cost it.
//
// With checkpointing enabled the kill forfeits only the progress since the
// last checkpoint: the job's total progress (preserved checkpoint plus the
// elapsed run) rounds down to a checkpoint multiple, which becomes the new
// Checkpointed — the resubmitted dispatch runs only the remainder. The
// accounting undo uses the checkpoint as it was when Dispatch charged the
// integrals, before the kill advances it.
func (s *simulation) abortRunning(idx, c int, now float64) {
	j := s.flt.running[idx]
	ev := s.flt.departures[idx]
	s.flt.removeAt(idx)
	if !s.eng.Cancel(ev) {
		panic(fmt.Sprintf("core: departure of aborted job %d was not pending", j.ID))
	}
	progress := j.Checkpointed + (now - j.StartTime)
	kept := s.flt.inj.Spec.Checkpointed(progress)
	lost := (progress - kept) * float64(j.TotalSize)
	saved := (kept - j.Checkpointed) * float64(j.TotalSize)
	s.m.Release(j.Components, j.Placement)
	s.busy.Set(now, float64(s.m.Busy()))
	s.cmd.occupy(now, j, -1)
	if s.measuring && j.StartTime >= s.measureFrom {
		// Dispatch charged the remaining service to the utilization
		// integrals; the job will be recharged when it is dispatched again.
		rem := j.RemainingTime()
		s.grossWork -= float64(j.TotalSize) * rem
		if j.Checkpointed > 0 {
			s.netWork -= float64(j.TotalSize) * j.ServiceTime * (rem / j.ExtendedServiceTime)
		} else {
			s.netWork -= float64(j.TotalSize) * j.ServiceTime
		}
	}
	j.Checkpointed = kept
	j.Retries++
	s.flt.inj.Stats.Kills++
	s.flt.inj.Stats.WorkLost += lost
	s.flt.inj.Stats.WorkSaved += saved
	s.flt.killedPending++
	s.obs.JobKilled(now, j.ID, c, lost, saved)
	s.eng.ScheduleAfter(s.flt.inj.Spec.Backoff(j.Retries), evResubmit, j)
}

// nodeRepair returns one processor of cluster c to service and gives the
// policy a scheduling opportunity under the departure ordering contract.
func (s *simulation) nodeRepair(c int) {
	now := s.eng.Now()
	s.m.Repair(c)
	s.flt.inj.Stats.Repairs++
	s.availCap.Set(now, float64(s.m.TotalAvail()))
	s.obs.NodeRepaired(now, c, s.m.TotalAvail())
	s.pol.CapacityRestored(s, c)
	s.sampleQueueDepth()
}

// resubmit re-queues an aborted job after its backoff. The job re-enters
// through the policy's normal Submit path (FCFS puts it at the tail — an
// abort forfeits the queue position along with the work).
func (s *simulation) resubmit(j *workload.Job) {
	now := s.eng.Now()
	s.flt.inj.Stats.Resubmits++
	s.flt.killedPending--
	s.obs.JobResubmitted(now, j.ID, j.Retries)
	s.pol.Submit(s, j)
	s.sampleQueueDepth()
}
