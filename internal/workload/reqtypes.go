package workload

import (
	"fmt"

	"coalloc/internal/rng"
)

// RequestType is the structure of a job request, following the taxonomy of
// the authors' companion study (Bucur & Epema, JSSPP 2000, cited as [6]):
// the present paper evaluates unordered requests against total requests in
// a single cluster; ordered and flexible requests are provided for the
// request-structure ablation.
type RequestType int

const (
	// Unordered requests specify component sizes; the scheduler picks
	// the clusters (the paper's main subject).
	Unordered RequestType = iota
	// Ordered requests additionally fix the cluster of every component;
	// the scheduler has no placement freedom.
	Ordered
	// Flexible requests specify only the total size; the scheduler may
	// split them arbitrarily over the clusters.
	Flexible
	// Total requests specify only the total size but must be served
	// within one cluster.
	Total
)

// String returns the taxonomy name.
func (t RequestType) String() string {
	switch t {
	case Unordered:
		return "unordered"
	case Ordered:
		return "ordered"
	case Flexible:
		return "flexible"
	case Total:
		return "total"
	default:
		return fmt.Sprintf("RequestType(%d)", int(t))
	}
}

// sampleDistinctClusters draws k distinct cluster indices out of n,
// uniformly, by a partial Fisher-Yates shuffle.
func sampleDistinctClusters(r *rng.Stream, k, n int) []int {
	if k > n {
		panic(fmt.Sprintf("workload: %d components for %d clusters", k, n))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// FinalizeFlexible rewrites a flexible job's components to the split the
// scheduler chose and recomputes the wide-area extension: a flexible job
// pays the extension factor only when its chosen split actually spans more
// than one cluster.
func (j *Job) FinalizeFlexible(components []int, ext float64) {
	if j.Type != Flexible {
		panic(fmt.Sprintf("workload: FinalizeFlexible on %s job %d", j.Type, j.ID))
	}
	sum := 0
	for _, c := range components {
		sum += c
	}
	if sum != j.TotalSize {
		panic(fmt.Sprintf("workload: flexible split %v does not cover total %d", components, j.TotalSize))
	}
	j.Components = components
	j.ExtendedServiceTime = j.ServiceTime
	if len(components) > 1 {
		j.ExtendedServiceTime = j.ServiceTime * ext
	}
}
