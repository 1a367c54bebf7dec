// Package workload implements the paper's workload model: total job sizes
// drawn from the DAS-derived distributions (DAS-s-128, DAS-s-64), service
// times from DAS-t-900, the rule that splits a total size into at most C
// components no larger than the component-size limit, the 1.25 wide-area
// extension factor for multi-component jobs, and the arithmetic connecting
// arrival rates to offered (gross and net) utilization.
package workload

import "fmt"

// Job is one rigid parallel job. A job with a single component is "local"
// in the paper's terminology; a job with several components requires
// co-allocation and has its service time extended by the wide-area
// communication factor.
type Job struct {
	ID int64
	// TotalSize is the total number of processors requested.
	TotalSize int
	// Components holds the per-cluster processor counts, in nonincreasing
	// order. len(Components) >= 1; the sum equals TotalSize.
	Components []int
	// ServiceTime is the net service time (computation plus fast local
	// communication) in seconds.
	ServiceTime float64
	// ExtendedServiceTime is the time the job actually occupies its
	// processors: ServiceTime for single-component jobs, ServiceTime
	// times the extension factor for multi-component jobs.
	ExtendedServiceTime float64
	// Queue is the index of the local queue the job is submitted to, or
	// GlobalQueue for jobs routed to a global queue by the policy.
	Queue int
	// Type is the request structure (Unordered unless set otherwise).
	Type RequestType
	// OrderedPlacement fixes the cluster of every component for Ordered
	// requests; nil for all other types.
	OrderedPlacement []int

	// Filled in by the simulator.
	ArrivalTime float64
	StartTime   float64
	FinishTime  float64
	Placement   []int // cluster index per component
	// Retries counts how many times a processor failure aborted this job;
	// it scales the resubmission backoff (see package faults).
	Retries int
	// Checkpointed is the extended-service progress (in seconds) preserved
	// across failure aborts by periodic checkpointing (see
	// faults.Spec.CheckpointInterval): always a multiple of the checkpoint
	// interval, and zero unless checkpointing is enabled and the job has
	// been aborted at least once past its first checkpoint. A dispatched
	// job runs only for RemainingTime.
	Checkpointed float64
}

// GlobalQueue marks a job queued at a policy's global queue.
const GlobalQueue = -1

// Multi reports whether the job needs co-allocation (more than one component).
func (j *Job) Multi() bool { return len(j.Components) > 1 }

// RemainingTime returns the extended service time the job still has to
// run: the full extended service minus the progress preserved by
// checkpointing. Without checkpointing it is exactly ExtendedServiceTime
// (x - 0 == x bitwise), which the fault-free determinism guardrails rely
// on.
func (j *Job) RemainingTime() float64 { return j.ExtendedServiceTime - j.Checkpointed }

// ResponseTime returns finish minus arrival time.
func (j *Job) ResponseTime() float64 { return j.FinishTime - j.ArrivalTime }

// Split divides a total job size into components per Section 2.4 of the
// paper: the number of components is the smallest n with ceil(total/n) <=
// limit, capped at clusters; the component sizes are as equal as possible
// (they differ by at most one) and are returned in nonincreasing order.
//
// When total exceeds clusters*limit the cap binds and components exceed the
// limit; with the paper's parameters (max size 128 = 4 clusters x limit 32)
// this happens only for limits below 32, where e.g. size 128 at limit 16
// still becomes 4 components of 32. This mirrors the paper's rule "as long
// as the number of components does not exceed the number of clusters".
func Split(total, limit, clusters int) []int {
	return AppendSplit(nil, total, limit, clusters)
}

// AppendSplit appends the component sizes of Split(total, limit, clusters)
// to dst and returns the extended slice. When dst has enough spare
// capacity (NumComponents elements) no allocation takes place — this is
// the sampling hot path, fed by Arena-carved slices.
func AppendSplit(dst []int, total, limit, clusters int) []int {
	if total <= 0 {
		panic(fmt.Sprintf("workload: Split with non-positive total %d", total))
	}
	if limit <= 0 {
		panic(fmt.Sprintf("workload: Split with non-positive limit %d", limit))
	}
	if clusters <= 0 {
		panic(fmt.Sprintf("workload: Split with non-positive cluster count %d", clusters))
	}
	n := (total + limit - 1) / limit
	if n > clusters {
		n = clusters
	}
	if n < 1 {
		n = 1
	}
	base := total / n
	extra := total % n
	for i := 0; i < n; i++ {
		c := base
		if i < extra {
			c++
		}
		dst = append(dst, c) // already nonincreasing: larger components first
	}
	return dst
}

// NumComponents returns len(Split(total, limit, clusters)) without
// allocating.
func NumComponents(total, limit, clusters int) int {
	n := (total + limit - 1) / limit
	if n > clusters {
		n = clusters
	}
	if n < 1 {
		n = 1
	}
	return n
}
