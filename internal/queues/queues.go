// Package queues provides the FCFS job queues and the enable/disable
// bookkeeping the paper's multi-queue policies (LS, LP) are built from:
// a queue whose head job does not fit is disabled until the next job
// departs from the system, and at each departure queues are re-enabled in
// the order in which they were disabled.
//
// The package keeps no observer: Disable and the EnableAll variants report
// which transitions happened, and the policies report them, timestamped,
// through their scheduling context.
package queues

import (
	"fmt"
	"slices"

	"coalloc/internal/workload"
)

// FIFO is a first-come-first-served job queue. The zero value is an empty
// queue ready to use.
type FIFO struct {
	jobs []*workload.Job
	head int
}

// Push appends a job.
func (q *FIFO) Push(j *workload.Job) { q.jobs = append(q.jobs, j) }

// Head returns the oldest queued job, or nil when empty.
func (q *FIFO) Head() *workload.Job {
	if q.head >= len(q.jobs) {
		return nil
	}
	return q.jobs[q.head]
}

// Pop removes and returns the oldest queued job. It panics when empty.
func (q *FIFO) Pop() *workload.Job {
	if q.head >= len(q.jobs) {
		panic("queues: Pop from empty FIFO")
	}
	j := q.jobs[q.head]
	q.jobs[q.head] = nil // release for GC
	q.head++
	// Compact once the dead prefix dominates, keeping Pop amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.jobs) {
		n := copy(q.jobs, q.jobs[q.head:])
		for i := n; i < len(q.jobs); i++ {
			q.jobs[i] = nil
		}
		q.jobs = q.jobs[:n]
		q.head = 0
	}
	return j
}

// Len returns the number of queued jobs.
func (q *FIFO) Len() int { return len(q.jobs) - q.head }

// ForEachWaiting visits the queued jobs in FCFS order (index 0 = head).
// The callback returns false to stop early. The callback must not mutate
// the queue; collect and apply changes afterwards (see RemoveAll).
func (q *FIFO) ForEachWaiting(fn func(idx int, j *workload.Job) bool) {
	for i := q.head; i < len(q.jobs); i++ {
		if !fn(i-q.head, q.jobs[i]) {
			return
		}
	}
}

// RemoveAll deletes the given jobs (compared by identity) from the queue,
// preserving the order of the remaining jobs. The jobs must be queued and
// given in queue order, as a backfilling pass collects the candidates it
// started from the middle of the queue; RemoveAll merges them out in one
// linear walk and panics on a job it does not find. It allocates nothing.
func (q *FIFO) RemoveAll(jobs []*workload.Job) {
	if len(jobs) == 0 {
		return
	}
	kept := q.jobs[q.head:]
	out := kept[:0]
	k := 0
	for _, j := range kept {
		if k < len(jobs) && j == jobs[k] {
			k++
			continue
		}
		out = append(out, j)
	}
	if k < len(jobs) {
		panic(fmt.Sprintf("queues: RemoveAll job %d not queued (or out of queue order)", jobs[k].ID))
	}
	for i := len(out); i < len(kept); i++ {
		kept[i] = nil
	}
	q.jobs = q.jobs[:q.head+len(out)]
}

// Empty reports whether the queue has no jobs.
func (q *FIFO) Empty() bool { return q.Len() == 0 }

// EnableSet tracks which of n queues are enabled, preserving the paper's
// ordering contract: the visit order is the enable order, a disabled queue
// leaves the order, and re-enabled queues rejoin it in the order they were
// disabled. n is the cluster count, so the order is a short plain slice.
type EnableSet struct {
	order    []int  // enabled queue ids in visit order
	disabled []int  // queue ids in the order they were disabled
	state    []bool // state[q] reports whether queue q is enabled
}

// NewEnableSet returns an EnableSet over queues 0..n-1, all enabled, with
// initial visit order 0..n-1.
func NewEnableSet(n int) *EnableSet {
	if n <= 0 {
		panic(fmt.Sprintf("queues: NewEnableSet(%d)", n))
	}
	s := &EnableSet{order: make([]int, 0, n), state: make([]bool, n)}
	s.EnableAllSorted()
	return s
}

// Enabled returns the enabled queue ids in visit order. The slice is the
// set's internal state; callers must not retain it across mutations.
func (s *EnableSet) Enabled() []int { return s.order }

// IsEnabled reports whether queue q is enabled.
func (s *EnableSet) IsEnabled(q int) bool { return s.state[q] }

// Disable removes queue q from the visit order and records the disable
// order. It reports whether q was enabled: disabling a disabled queue is a
// no-op and reports false.
func (s *EnableSet) Disable(q int) bool {
	if q < 0 || q >= len(s.state) {
		panic(fmt.Sprintf("queues: Disable(%d) of %d queues", q, len(s.state)))
	}
	if !s.state[q] {
		return false
	}
	s.state[q] = false
	i := slices.Index(s.order, q)
	s.order = slices.Delete(s.order, i, i+1)
	s.disabled = append(s.disabled, q)
	return true
}

// EnableAll re-enables every disabled queue, appending them to the visit
// order in the order they were disabled ("at each job departure the queues
// are enabled in the same order in which they were disabled"). It returns
// the re-enabled queues in disable order; the slice is valid until the
// next Disable.
func (s *EnableSet) EnableAll() []int {
	re := s.disabled
	if len(re) == 0 {
		return nil
	}
	for _, q := range re {
		s.state[q] = true
	}
	s.order = append(s.order, re...)
	s.disabled = s.disabled[:0]
	return re
}

// EnableAllSorted re-enables every queue and resets the visit order to
// 0..n-1, discarding the disable history. This is the ablation alternative
// to the paper's disable-order rule. Like EnableAll, it returns the
// re-enabled queues in disable order, valid until the next Disable.
func (s *EnableSet) EnableAllSorted() []int {
	re := s.disabled
	s.disabled = s.disabled[:0]
	s.order = s.order[:0]
	for q := range s.state {
		s.state[q] = true
		s.order = append(s.order, q)
	}
	return re
}
