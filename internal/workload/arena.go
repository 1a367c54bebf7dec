package workload

import (
	"fmt"

	"coalloc/internal/rng"
)

// Arena allocates a run's jobs. It block-allocates Job values and carves
// every per-job int slice (Components, Placement, OrderedPlacement) out of
// a shared []int backing store, so sampling and dispatching a job costs
// zero heap allocations in the steady state. A departed job's slot goes
// back to the arena (Release) and the next Job reuses it together with
// its int buffers, so a run's job memory is bounded by the most jobs it
// ever held in the system, not by the number it simulates.
//
// Ownership rules (see DESIGN.md §11):
//
//   - A *Job returned by Job (and every slice returned by Ints or
//     CopyInts for it) is valid until it is released or until the next
//     Reset, whichever comes first. After that the slot belongs to a
//     later job: a stale handle silently aliases it.
//   - An arena belongs to exactly one run at a time. Nothing that
//     outlives the run — results, observers, package-level state — may
//     retain arena-owned *Job handles or slices. TestSameSeedMatrix
//     (internal/core) runs every row twice at once over the pooled
//     arenas, so state shared across runs shows up as diverging results.
//   - Arenas are not safe for concurrent use; each replication gets its
//     own (internal/core recycles them through a sync.Pool).
//
// The zero value is ready to use. All methods are nil-safe: a nil *Arena
// falls back to ordinary heap allocation, so code paths can be written
// once and run with or without pooling.
type Arena struct {
	jobBlocks [][]Job
	jobUsed   int    // slots used in the last job block
	free      []*Job // released slots; the last one is reused first
	intBlocks [][]int
	intUsed   int // ints used in the last int block

	perm []int // scratch for sampleDistinctClusters; never handed out
}

// Block sizing: jobs are ~160 B each, so 1024-job blocks are ~160 KiB;
// int blocks hold the Components+Placement of ~2048 typical jobs. Slots
// are recycled, so a run needs a block per 1024 jobs in the system, not
// per 1024 jobs simulated. After the first Reset the arena consolidates
// to one right-sized block per kind, so later replications allocate
// nothing at all.
const (
	arenaJobBlock = 1024
	arenaIntBlock = 8192
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Job returns a job with every field zero except its int slices. A fresh
// slot's slices are nil; a released slot comes back with Components,
// Placement and OrderedPlacement of length zero over the backing arrays
// of the slot's previous job, for Ints and CopyInts to refill. The handle
// is owned by the arena (see Arena). A nil arena allocates from the heap.
func (a *Arena) Job() *Job {
	if a == nil {
		return &Job{}
	}
	if n := len(a.free); n > 0 {
		j := a.free[n-1]
		a.free = a.free[:n-1]
		// Clear, then restore the buffers: assigning a composite literal
		// that reads j would build the whole Job on the stack and copy it.
		c, p, o := j.Components[:0], j.Placement[:0], j.OrderedPlacement[:0]
		*j = Job{}
		j.Components, j.Placement, j.OrderedPlacement = c, p, o
		return j
	}
	if len(a.jobBlocks) == 0 || a.jobUsed == len(a.jobBlocks[len(a.jobBlocks)-1]) {
		a.jobBlocks = append(a.jobBlocks, make([]Job, arenaJobBlock))
		a.jobUsed = 0
	}
	blk := a.jobBlocks[len(a.jobBlocks)-1]
	j := &blk[a.jobUsed]
	a.jobUsed++
	*j = Job{} // recycled block: clear the previous replication's job
	return j
}

// Release returns j's slot to the arena once the job has left the
// system; the next Job reuses it, and with it the backing arrays of j's
// int slices. j must have come from this arena, and neither j nor its
// slices may be used after the call. A nil arena leaves j to the
// collector.
func (a *Arena) Release(j *Job) {
	if a != nil {
		a.free = append(a.free, j)
	}
}

// Ints returns a zeroed slice of n ints: in buf's backing array when its
// capacity allows (a released slot's buffer, see Job), and otherwise
// carved from the shared backing store. A carve's capacity is pinned to
// n (full slice expression), so appending to it can never scribble over
// a neighbouring carve — append reallocates to the heap instead. A nil
// arena falls back to make; n <= 0 returns buf[:0].
func (a *Arena) Ints(buf []int, n int) []int {
	if n <= 0 {
		return buf[:0]
	}
	if n <= cap(buf) {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	if a == nil {
		return make([]int, n)
	}
	if len(a.intBlocks) == 0 || a.intUsed+n > len(a.intBlocks[len(a.intBlocks)-1]) {
		size := arenaIntBlock
		if n > size {
			size = n
		}
		a.intBlocks = append(a.intBlocks, make([]int, size))
		a.intUsed = 0
	}
	blk := a.intBlocks[len(a.intBlocks)-1]
	s := blk[a.intUsed : a.intUsed+n : a.intUsed+n]
	a.intUsed += n
	clear(s)
	return s
}

// CopyInts returns a copy of src: in dst's backing array when its
// capacity allows, and otherwise in a carve (see Ints).
func (a *Arena) CopyInts(dst, src []int) []int {
	if len(src) > cap(dst) {
		dst = a.Ints(nil, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Reset recycles every job and slice the arena has handed out since the
// last Reset, released or not. Outstanding handles become invalid.
// Memory is retained: when more than one block of a kind was needed, the
// blocks are merged into a single right-sized one, so a steady-state
// replication loop reaches zero allocations after the first pass.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	clear(a.free) // drop the pointers into blocks the merge may retire
	a.free = a.free[:0]
	if len(a.jobBlocks) > 1 {
		total := 0
		for _, b := range a.jobBlocks {
			total += len(b)
		}
		a.jobBlocks = [][]Job{make([]Job, total)}
	}
	a.jobUsed = 0
	if len(a.intBlocks) > 1 {
		total := 0
		for _, b := range a.intBlocks {
			total += len(b)
		}
		a.intBlocks = [][]int{make([]int, total)}
	}
	a.intUsed = 0
}

// SampleInto draws one job exactly like Spec.Sample but allocates the Job
// and its Components from the arena. A nil arena degrades to per-job heap
// allocation. Both paths consume identical stream draws in identical
// order, so for a given stream state the sampled values are bit-identical
// with and without an arena (pinned by TestSampleIntoMatchesSample).
func (s *Spec) SampleInto(a *Arena, sizeStream, svcStream *rng.Stream) *Job {
	total := s.Sizes.Sample(sizeStream)
	svc := s.Service.Sample(svcStream)
	return s.JobFromDraws(a, total, svc)
}

// JobFromDraws materializes the job Sample would have built from raw
// draws (a total size and a net service time) already taken from the
// streams.
func (s *Spec) JobFromDraws(a *Arena, total int, svc float64) *Job {
	j := a.Job()
	j.TotalSize = total
	n := NumComponents(total, s.ComponentLimit, s.Clusters)
	j.Components = AppendSplit(a.Ints(j.Components, n)[:0], total, s.ComponentLimit, s.Clusters)
	j.ServiceTime = svc
	j.ExtendedServiceTime = svc
	if n > 1 {
		j.ExtendedServiceTime = svc * s.ExtensionFactor
	}
	return j
}

// SampleTypedInto draws one job of the given request type from the arena
// (nil arena = heap, and the Job and its slices are caller-owned).
// Unordered behaves exactly like SampleInto. Ordered jobs get the
// unordered split plus a fixed assignment of components to distinct
// clusters, drawn uniformly. Flexible and Total jobs carry a single
// pseudo-component holding the total size; for Flexible the simulator
// rewrites the components at dispatch time to whatever split it chooses,
// and recomputes the wide-area extension accordingly.
func (s *Spec) SampleTypedInto(a *Arena, t RequestType, sizeStream, svcStream, placeStream *rng.Stream) *Job {
	switch t {
	case Unordered:
		return s.SampleInto(a, sizeStream, svcStream)
	case Ordered:
		j := s.SampleInto(a, sizeStream, svcStream)
		j.Type = Ordered
		j.OrderedPlacement = sampleDistinctClustersInto(a, j.OrderedPlacement, placeStream, len(j.Components), s.Clusters)
		return j
	case Flexible, Total:
		total := s.Sizes.Sample(sizeStream)
		svc := s.Service.Sample(svcStream)
		j := a.Job()
		j.Type = t
		j.TotalSize = total
		comps := a.Ints(j.Components, 1)
		comps[0] = total
		j.Components = comps
		j.ServiceTime = svc
		j.ExtendedServiceTime = svc
		if t == Flexible && NumComponents(total, s.ComponentLimit, s.Clusters) > 1 {
			// Provisional estimate for offered-load arithmetic; the
			// dispatcher recomputes it from the actual split.
			j.ExtendedServiceTime = svc * s.ExtensionFactor
		}
		return j
	default:
		panic(fmt.Sprintf("workload: unknown request type %d", int(t)))
	}
}

// sampleDistinctClustersInto is sampleDistinctClusters drawing into the
// arena: the Fisher-Yates permutation lives in arena scratch and only the
// k chosen indices are copied, into dst when it is large enough (see
// Ints). The stream draw sequence is identical to the heap version.
func sampleDistinctClustersInto(a *Arena, dst []int, r *rng.Stream, k, n int) []int {
	if a == nil {
		return sampleDistinctClusters(r, k, n)
	}
	if k > n {
		panic(fmt.Sprintf("workload: %d components for %d clusters", k, n))
	}
	if cap(a.perm) < n {
		a.perm = make([]int, n)
	}
	perm := a.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return a.CopyInts(dst, perm[:k])
}
