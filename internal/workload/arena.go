package workload

import (
	"fmt"

	"coalloc/internal/rng"
)

// Arena is a per-run bump allocator for jobs. It block-allocates Job
// values and carves every per-job int slice (Components, Placement,
// OrderedPlacement) out of a shared []int backing store, so sampling and
// dispatching a job costs zero heap allocations in the steady state.
//
// Ownership rules (see DESIGN.md §11):
//
//   - Every *Job returned by Job (and every slice returned by Ints or
//     CopyInts) is valid only until the next Reset. Resetting recycles
//     the blocks wholesale; stale handles silently alias new jobs.
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
	jobUsed   int // slots used in the last job block
	intBlocks [][]int
	intUsed   int // ints used in the last int block

	perm []int // scratch for sampleDistinctClusters; never handed out
}

// Block sizing: jobs are ~160 B each, so 1024-job blocks are ~160 KiB;
// int blocks hold the Components+Placement of ~2048 typical jobs. After
// the first Reset the arena consolidates to one right-sized block per
// kind, so later replications allocate nothing at all.
const (
	arenaJobBlock = 1024
	arenaIntBlock = 8192
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Job returns a zeroed job. The handle is owned by the arena: it is valid
// only until the next Reset. A nil arena allocates from the heap.
func (a *Arena) Job() *Job {
	if a == nil {
		return &Job{}
	}
	if len(a.jobBlocks) == 0 || a.jobUsed == len(a.jobBlocks[len(a.jobBlocks)-1]) {
		a.jobBlocks = append(a.jobBlocks, make([]Job, arenaJobBlock))
		a.jobUsed = 0
	}
	blk := a.jobBlocks[len(a.jobBlocks)-1]
	j := &blk[a.jobUsed]
	a.jobUsed++
	*j = Job{} // recycled slot: clear the previous replication's job
	return j
}

// Ints carves a zeroed slice of n ints from the shared backing store. The
// slice's capacity is pinned to n (full slice expression), so appending to
// it can never scribble over a neighbouring carve — append reallocates to
// the heap instead. Valid only until the next Reset. A nil arena (or
// n == 0) falls back to make.
func (a *Arena) Ints(n int) []int {
	if n <= 0 {
		return nil
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
	for i := range s {
		s[i] = 0
	}
	return s
}

// CopyInts carves an arena-owned copy of src. Empty src returns nil.
func (a *Arena) CopyInts(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	dst := a.Ints(len(src))
	copy(dst, src)
	return dst
}

// Reset recycles every job and slice the arena has handed out since the
// last Reset. Outstanding handles become invalid. Memory is retained:
// when more than one block of a kind was needed, the blocks are merged
// into a single right-sized one, so a steady-state replication loop
// reaches zero allocations after the first pass.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
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
	j.Components = AppendSplit(a.Ints(n)[:0], total, s.ComponentLimit, s.Clusters)
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
		j.OrderedPlacement = sampleDistinctClustersInto(a, placeStream, len(j.Components), s.Clusters)
		return j
	case Flexible, Total:
		total := s.Sizes.Sample(sizeStream)
		svc := s.Service.Sample(svcStream)
		j := a.Job()
		j.Type = t
		j.TotalSize = total
		comps := a.Ints(1)
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
// k chosen indices are carved from the backing store. The stream draw
// sequence is identical to the heap version.
func sampleDistinctClustersInto(a *Arena, r *rng.Stream, k, n int) []int {
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
	return a.CopyInts(perm[:k])
}
