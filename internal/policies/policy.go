// Package policies implements the four scheduling policies the paper
// evaluates: GS (one global queue), LS (one local queue per cluster, all
// jobs submitted locally), LP (local queues for single-component jobs with
// priority over a global queue holding the multi-component jobs), and SC
// (the single-cluster FCFS reference, which is GS on a one-cluster system;
// package core builds SC, SC-EASY and SC-CONS from NewGS, NewEASY and
// NewConservative with Worst Fit).
//
// All queues are FCFS. The policies decide when a queue may start its head
// job and on which clusters; the simulator (package core) owns the clock,
// performs the allocation, and schedules the departure. Policy is the one
// contract between the two: the simulator calls it on arrivals,
// departures and fault events, and a policy reaches the run — processors,
// clock, observer, decision tracer, scratch — only through Ctx.
package policies

import (
	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// Ctx is the slice of the simulator a policy sees: the processors, and a
// way to start a job. Dispatch must allocate components[i] processors on
// cluster placement[i] and schedule the job's departure.
type Ctx interface {
	// Cluster returns the multicluster state.
	Cluster() *cluster.Multicluster
	// Now returns the current virtual time in seconds.
	Now() float64
	// Dispatch starts the job on the given placement now. The placement
	// slice may point into shared scratch (see Scratch): Dispatch must
	// copy it before retaining, and must leave j.Placement holding a
	// stable copy that stays valid for the job's lifetime — the
	// backfilling policies read it back for their reservation records.
	Dispatch(j *workload.Job, placement []int)
	// Obs returns the run's observer, or nil when observability is off.
	// It is the one way observability reaches a policy: passes,
	// head-of-queue misses, backfill decisions and queue enable/disable
	// transitions (timestamped with Now) are all reported into it; all
	// observer methods are nil-safe.
	Obs() *obs.Observer
	// Dec returns the run's decision tracer, or nil when decision
	// tracing is off. Policies report the counterfactual side of their
	// decisions into it — local-queue misses with the clusters that had
	// room, reservations with the alternatives the profile offered,
	// rejected backfill candidates; all tracer methods are nil-safe.
	Dec() *dectrace.Tracer
	// Scratch returns the run's shared scheduling scratch buffers.
	// Exactly one policy pass runs at a time (a simulation run is
	// single-threaded), so one set per run suffices.
	Scratch() *Scratch
}

// Scratch is the bundle of reusable buffers a scheduling pass works in,
// owned by the run and handed to the policies through Ctx. It exists so
// the steady-state scheduling passes — placement probes, visit-order
// snapshots, backfill candidate collection — allocate nothing.
//
// Contents are valid only within one pass step: any placement a policy
// wants to keep must be copied (Ctx.Dispatch does exactly that).
type Scratch struct {
	// Place receives candidate placements (one entry per component; sized
	// to the cluster count, the maximum component count).
	Place []int
	// Used marks clusters taken by a partial placement (one entry per
	// cluster).
	Used []bool
	// Round snapshots a visit order for one round of a multi-queue pass.
	Round []int
	// Started collects the jobs a backfilling pass dispatched, for batch
	// removal from the queue. Cleared at the start of each pass.
	Started []*workload.Job
}

// NewScratch returns scratch buffers for a system with the given number
// of clusters.
func NewScratch(clusters int) *Scratch {
	return &Scratch{
		Place: make([]int, clusters),
		Used:  make([]bool, clusters),
		Round: make([]int, 0, clusters),
	}
}

// Policy is a co-allocation scheduling policy: the one contract between
// the simulator and a policy. The simulator calls it on the events of a
// run — an arrival, a departure, and the three fault events of package
// faults — and the policy answers by starting jobs through Ctx.Dispatch
// and reporting what it did through Ctx.Obs and Ctx.Dec.
// Implementations are not safe for concurrent use; a simulation run is
// single-threaded.
//
// The fault hooks name the affected cluster, because policies that keep
// a forecast of future idle capacity (the backfilling profile) must fold
// the capacity change into it — a failure or repair is neither an arrival
// nor a departure, so no other event repairs the forecast. Policies
// without persistent capacity state use the index only for symmetry.
//
// CapacityRestored and JobKilled carry JobDeparted's contract: queues
// disabled by head misses are re-enabled under the policy's usual ordering
// rules (disable order for LS, global-first for LP) and a scheduling pass
// runs — a repair frees a processor exactly like a departure does, and a
// kill releases the victim's processors (minus the one that failed).
// CapacityLost may skip the pass: an idle processor going down can never
// admit a queued job (placement is monotone in the idle vector), so
// FCFS-family policies no-op it and the backfilling policies only repair
// their forecast state.
type Policy interface {
	// Submit enqueues an arriving job and performs a scheduling pass.
	// For multi-queue policies the job's Queue field selects the local
	// queue; policies with a global queue overwrite Queue for jobs they
	// route globally.
	Submit(ctx Ctx, j *workload.Job)
	// JobDeparted tells the policy that a job released its processors;
	// the policy re-enables queues per its rules and performs a
	// scheduling pass.
	JobDeparted(ctx Ctx, j *workload.Job)
	// CapacityLost tells the policy that a failure took one idle
	// processor of cluster c down without aborting anything.
	CapacityLost(ctx Ctx, c int)
	// CapacityRestored tells the policy that a repaired processor of
	// cluster c returned to the idle pool.
	CapacityRestored(ctx Ctx, c int)
	// JobKilled tells the policy that a failure on cluster c aborted the
	// victim job: its processors were released and the capacity of c
	// shrank by the processor the failure consumed. The victim is NOT
	// resubmitted here; it re-enters the policy through Submit when its
	// retry backoff elapses.
	JobKilled(ctx Ctx, victim *workload.Job, c int)
	// Queued returns the total number of waiting jobs.
	Queued() int
	// QueuedAt returns the number of waiting jobs in the given queue;
	// use workload.GlobalQueue for the global queue. Policies without
	// that queue return 0.
	QueuedAt(q int) int
}
