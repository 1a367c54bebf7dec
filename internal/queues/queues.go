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

	"coalloc/internal/workload"
)

// FIFO is a first-come-first-served job queue. The zero value is an empty
// queue ready to use.
type FIFO struct {
	jobs []*workload.Job
	head int
	drop map[*workload.Job]bool // reusable RemoveAll scratch, cleared after use
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

// removeAllScanLimit is the batch size up to which RemoveAll membership
// tests run as a linear identity scan. Backfilling passes start a handful
// of jobs at a time, so the scan covers the common case without touching
// the map at all.
const removeAllScanLimit = 8

// RemoveAll deletes the given jobs (compared by identity) from the queue,
// preserving the order of the remaining jobs. Jobs not present are
// ignored. Backfilling uses it to extract the candidates it started from
// the middle of the queue. RemoveAll allocates nothing in the steady
// state: small batches use a linear scan, larger ones a reusable map that
// is cleared — not dropped — after the pass, so no job pointers outlive
// the call.
func (q *FIFO) RemoveAll(jobs []*workload.Job) {
	if len(jobs) == 0 {
		return
	}
	kept := q.jobs[q.head:]
	out := kept[:0]
	if len(jobs) <= removeAllScanLimit {
		for _, j := range kept {
			found := false
			for _, d := range jobs {
				if d == j {
					found = true
					break
				}
			}
			if !found {
				out = append(out, j)
			}
		}
	} else {
		if q.drop == nil {
			q.drop = make(map[*workload.Job]bool, len(jobs))
		}
		for _, j := range jobs {
			q.drop[j] = true
		}
		for _, j := range kept {
			if !q.drop[j] {
				out = append(out, j)
			}
		}
		clear(q.drop)
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
// disabled.
//
// The visit order lives in an intrusive doubly linked list (index arrays
// over the queue ids plus one sentinel), so Disable — which sits on the
// LS/LP per-pass path, once per head miss — unlinks in O(1) instead of
// scanning and shifting an order slice. The flat []int view of the order
// is materialized lazily, only when Enabled is called after a mutation;
// the policies copy that view once per scheduling round, so the rebuild
// replaces a copy they paid for anyway.
type EnableSet struct {
	// next and prev chain the enabled queue ids in visit order through a
	// circular list anchored at sentinel index n. Entries of disabled
	// queues are meaningless until they are relinked.
	next, prev []int
	order      []int // cached visit order; rebuilt when stale
	stale      bool
	disabled   []int // queue ids in the order they were disabled
	state      []bool
	n          int
}

// NewEnableSet returns an EnableSet over queues 0..n-1, all enabled, with
// initial visit order 0..n-1.
func NewEnableSet(n int) *EnableSet {
	if n <= 0 {
		panic(fmt.Sprintf("queues: NewEnableSet(%d)", n))
	}
	s := &EnableSet{
		next:  make([]int, n+1),
		prev:  make([]int, n+1),
		order: make([]int, 0, n),
		state: make([]bool, n),
		n:     n,
	}
	for i := 0; i <= n; i++ {
		s.next[i] = (i + 1) % (n + 1)
		s.prev[i] = (i + n) % (n + 1)
	}
	for i := 0; i < n; i++ {
		s.order = append(s.order, i)
		s.state[i] = true
	}
	return s
}

// Enabled returns the enabled queue ids in visit order. The slice is the
// set's internal state; callers must not retain it across mutations.
func (s *EnableSet) Enabled() []int {
	if s.stale {
		s.order = s.order[:0]
		for q := s.next[s.n]; q != s.n; q = s.next[q] {
			s.order = append(s.order, q)
		}
		s.stale = false
	}
	return s.order
}

// IsEnabled reports whether queue q is enabled.
func (s *EnableSet) IsEnabled(q int) bool { return s.state[q] }

// linkTail appends queue q to the end of the visit order.
func (s *EnableSet) linkTail(q int) {
	tail := s.prev[s.n]
	s.next[tail] = q
	s.prev[q] = tail
	s.next[q] = s.n
	s.prev[s.n] = q
}

// Disable removes queue q from the visit order and records the disable
// order. It reports whether q was enabled: disabling a disabled queue is a
// no-op and reports false.
func (s *EnableSet) Disable(q int) bool {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("queues: Disable(%d) of %d queues", q, s.n))
	}
	if !s.state[q] {
		return false
	}
	s.state[q] = false
	s.next[s.prev[q]] = s.next[q]
	s.prev[s.next[q]] = s.prev[q]
	s.stale = true
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
		s.linkTail(q)
	}
	s.disabled = s.disabled[:0]
	s.stale = true
	return re
}

// EnableAllSorted re-enables every queue and resets the visit order to
// 0..n-1, discarding the disable history. This is the ablation alternative
// to the paper's disable-order rule. Like EnableAll, it returns the
// re-enabled queues in disable order, valid until the next Disable.
func (s *EnableSet) EnableAllSorted() []int {
	re := s.disabled
	s.disabled = s.disabled[:0]
	for i := 0; i <= s.n; i++ {
		s.next[i] = (i + 1) % (s.n + 1)
		s.prev[i] = (i + s.n) % (s.n + 1)
	}
	for q := 0; q < s.n; q++ {
		s.state[q] = true
	}
	s.stale = true
	return re
}
