// Package cluster models the multicluster's processors: per-cluster idle
// counts, allocation and release, and the placement rules that decide which
// clusters receive the components of an unordered request.
//
// The paper's rule (Section 2.3): try to schedule the components in
// decreasing order of their sizes on distinct clusters, choosing clusters
// by Worst Fit — the cluster with the largest number of idle processors.
// First Fit and Best Fit are provided for the ablation benchmarks.
package cluster

import "fmt"

// Fit selects a placement rule.
type Fit int

// Placement rules.
const (
	WorstFit Fit = iota // largest idle count first (the paper's rule)
	FirstFit            // lowest cluster index that fits
	BestFit             // smallest sufficient idle count
)

// String returns the rule name.
func (f Fit) String() string {
	switch f {
	case WorstFit:
		return "WF"
	case FirstFit:
		return "FF"
	case BestFit:
		return "BF"
	default:
		return fmt.Sprintf("Fit(%d)", int(f))
	}
}

// Multicluster tracks the processors of C clusters. Processors are in one
// of three states: idle, busy, or down (failed, awaiting repair); idle
// never counts down processors, so the placement rules need no knowledge
// of failures.
type Multicluster struct {
	sizes     []int
	idle      []int
	down      []int // failed processors per cluster
	busy      int   // total busy processors, cached
	downTotal int   // total failed processors, cached
	cap       int

	// Reusable scratch so the per-event Alloc/Release checks are
	// allocation-free. A Multicluster is single-simulation state and is
	// never shared across goroutines, so plain fields suffice.
	scrSeen  []bool
	scrRel   []int
	scrOrder []int
}

// New returns a multicluster with the given per-cluster processor counts.
func New(sizes []int) *Multicluster {
	if len(sizes) == 0 {
		panic("cluster: New with no clusters")
	}
	m := &Multicluster{
		sizes:    make([]int, len(sizes)),
		idle:     make([]int, len(sizes)),
		down:     make([]int, len(sizes)),
		scrSeen:  make([]bool, len(sizes)),
		scrRel:   make([]int, len(sizes)),
		scrOrder: make([]int, len(sizes)),
	}
	for i, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("cluster: cluster %d has non-positive size %d", i, s))
		}
		m.sizes[i] = s
		m.idle[i] = s
		m.cap += s
	}
	return m
}

// NumClusters returns the number of clusters.
func (m *Multicluster) NumClusters() int { return len(m.sizes) }

// Capacity returns the total number of processors.
func (m *Multicluster) Capacity() int { return m.cap }

// Size returns the processor count of cluster c.
func (m *Multicluster) Size(c int) int { return m.sizes[c] }

// Idle returns the idle processor count of cluster c.
func (m *Multicluster) Idle(c int) int { return m.idle[c] }

// Busy returns the total number of busy processors.
func (m *Multicluster) Busy() int { return m.busy }

// TotalIdle returns the total number of idle processors.
func (m *Multicluster) TotalIdle() int { return m.cap - m.busy - m.downTotal }

// Down returns the failed (not yet repaired) processor count of cluster c.
func (m *Multicluster) Down(c int) int { return m.down[c] }

// Avail returns the number of up processors of cluster c: its size minus
// its failed processors, whether idle or busy.
func (m *Multicluster) Avail(c int) int { return m.sizes[c] - m.down[c] }

// TotalAvail returns the number of up processors across all clusters.
func (m *Multicluster) TotalAvail() int { return m.cap - m.downTotal }

// Fail marks one idle processor of cluster c as failed. The processor must
// be idle: a failure that lands on a fully busy cluster must first abort a
// running job there so its processors are released — Fail panics otherwise,
// which is exactly the invariant check on that victim-selection step (the
// victim must have had a component on c).
func (m *Multicluster) Fail(c int) {
	if c < 0 || c >= len(m.sizes) {
		panic(fmt.Sprintf("cluster: Fail names cluster %d of %d", c, len(m.sizes)))
	}
	if m.idle[c] <= 0 {
		panic(fmt.Sprintf("cluster: Fail on cluster %d with no idle processor (abort a victim first)", c))
	}
	m.idle[c]--
	m.down[c]++
	m.downTotal++
}

// Repair returns one failed processor of cluster c to the idle pool. It
// panics when cluster c has no failed processor.
func (m *Multicluster) Repair(c int) {
	if c < 0 || c >= len(m.sizes) {
		panic(fmt.Sprintf("cluster: Repair names cluster %d of %d", c, len(m.sizes)))
	}
	if m.down[c] <= 0 {
		panic(fmt.Sprintf("cluster: Repair on cluster %d with no failed processor", c))
	}
	m.down[c]--
	m.downTotal--
	m.idle[c]++
}

// PlaceInto chooses distinct clusters for the components (which must be in
// nonincreasing order) under the given fit rule, writing into
// caller-provided buffers: placement needs room for one entry per
// component and used for one entry per cluster. It reports whether the
// request fits now; on success the chosen cluster indices are in
// placement[:len(components)], and both buffers hold unspecified values
// otherwise. PlaceInto does not take the processors (pair it with Alloc)
// and never touches the heap.
//
// With distinct-cluster placement, greedy fitting of the largest
// component to the emptiest cluster is exactly what the paper's scheduler
// does; PlaceInto deliberately reproduces that greedy test rather than
// solving the (bipartite matching) feasibility problem optimally.
func (m *Multicluster) PlaceInto(components []int, fit Fit, placement []int, used []bool) bool {
	if len(components) == 0 {
		panic("cluster: PlaceInto with no components")
	}
	return PlaceVector(m.idle, components, fit, placement, used)
}

// PlaceVector is the greedy distinct-cluster placement rule on a plain
// idle vector — the rule PlaceInto applies to the current idle counts,
// for schedulers that evaluate hypothetical states (a reservation
// profile's window minimum, a shadow vector). Components are placed in
// order (nonincreasing, as in PlaceInto), each on the cluster the fit rule
// picks among those not yet used with enough idle processors. placement
// needs room for one entry per component and used for one entry per
// cluster; the result is reported as in PlaceInto.
//
// The rule is monotone for every fit: if the components fit on idle
// vector w, they fit on any v >= w pointwise. Schedulers rely on the
// contrapositive for pruning — a failure on v implies failure on any
// w <= v.
func PlaceVector(idle, components []int, fit Fit, placement []int, used []bool) bool {
	if len(components) > len(idle) {
		return false
	}
	used = used[:len(idle)]
	for c := range used {
		used[c] = false
	}
	for ci, need := range components {
		best := -1
		for c := range idle {
			if used[c] || idle[c] < need {
				continue
			}
			switch fit {
			case WorstFit:
				if best < 0 || idle[c] > idle[best] {
					best = c
				}
			case BestFit:
				if best < 0 || idle[c] < idle[best] {
					best = c
				}
			case FirstFit:
				if best < 0 {
					best = c
				}
			default:
				panic(fmt.Sprintf("cluster: unknown fit rule %d", int(fit)))
			}
			if fit == FirstFit && best >= 0 {
				break
			}
		}
		if best < 0 {
			return false
		}
		used[best] = true
		placement[ci] = best
	}
	return true
}

// FitsOn reports whether a single component of the given size fits on
// cluster c.
func (m *Multicluster) FitsOn(c, size int) bool { return m.idle[c] >= size }

// FitsOrdered reports whether components fit on the fixed clusters named
// by placement (an ordered request). The placement must name distinct
// clusters.
func (m *Multicluster) FitsOrdered(components, placement []int) bool {
	if len(components) != len(placement) {
		panic(fmt.Sprintf("cluster: FitsOrdered with %d components but %d placements",
			len(components), len(placement)))
	}
	for i, c := range placement {
		if c < 0 || c >= len(m.sizes) {
			panic(fmt.Sprintf("cluster: FitsOrdered names cluster %d of %d", c, len(m.sizes)))
		}
		if m.idle[c] < components[i] {
			return false
		}
	}
	return true
}

// CarveFlexible splits a flexible request of the given total size over the
// clusters, taking greedily from the cluster with the most idle processors
// first (Worst Fit in spirit: it keeps the load spread). It appends the
// chosen component sizes (nonincreasing) to components[:0] and their
// clusters to placement[:0], and returns both; ok is false, and neither
// buffer is touched, when the total exceeds the idle capacity of the whole
// system. Buffers with room for one entry per cluster make the call
// allocation-free.
func (m *Multicluster) CarveFlexible(total int, components, placement []int) ([]int, []int, bool) {
	if total <= 0 {
		panic(fmt.Sprintf("cluster: CarveFlexible(%d)", total))
	}
	if total > m.TotalIdle() {
		return components, placement, false
	}
	// Order clusters by idle count, descending, stable by index: an
	// insertion sort moves a cluster only past clusters with fewer idle.
	order := m.scrOrder
	for i := range order {
		c, k := i, i
		for k > 0 && m.idle[order[k-1]] < m.idle[c] {
			order[k] = order[k-1]
			k--
		}
		order[k] = c
	}
	components, placement = components[:0], placement[:0]
	remaining := total
	for _, c := range order {
		if remaining == 0 {
			break
		}
		take := m.idle[c]
		if take > remaining {
			take = remaining
		}
		if take == 0 {
			continue
		}
		components = append(components, take)
		placement = append(placement, c)
		remaining -= take
	}
	return components, placement, true
}

// Alloc takes the processors named by placement: components[i] processors
// on cluster placement[i]. It panics if the allocation is infeasible or the
// placement reuses a cluster, catching scheduler bugs at their source.
func (m *Multicluster) Alloc(components, placement []int) {
	if len(components) != len(placement) {
		panic(fmt.Sprintf("cluster: Alloc with %d components but %d placements",
			len(components), len(placement)))
	}
	seen := m.scrSeen
	for i := range seen {
		seen[i] = false
	}
	for i, c := range placement {
		if c < 0 || c >= len(m.sizes) {
			panic(fmt.Sprintf("cluster: Alloc placement %d names cluster %d of %d", i, c, len(m.sizes)))
		}
		if seen[c] {
			panic(fmt.Sprintf("cluster: Alloc places two components on cluster %d", c))
		}
		seen[c] = true
		if m.idle[c] < components[i] {
			panic(fmt.Sprintf("cluster: Alloc of %d on cluster %d with %d idle",
				components[i], c, m.idle[c]))
		}
	}
	for i, c := range placement {
		m.idle[c] -= components[i]
		m.busy += components[i]
	}
}

// Release returns the processors named by placement. It panics on
// over-release: releasing a placement that was never allocated must fail
// loudly, not corrupt the idle counts. The check accumulates the released
// processors per cluster before applying anything — a per-component test
// alone would accept a placement naming the same cluster twice whose
// components individually fit under the size but cumulatively do not.
func (m *Multicluster) Release(components, placement []int) {
	if len(components) != len(placement) {
		panic(fmt.Sprintf("cluster: Release with %d components but %d placements",
			len(components), len(placement)))
	}
	add := m.scrRel
	for i := range add {
		add[i] = 0
	}
	total := 0
	for i, c := range placement {
		if c < 0 || c >= len(m.sizes) {
			panic(fmt.Sprintf("cluster: Release placement %d names cluster %d of %d",
				i, c, len(m.sizes)))
		}
		add[c] += components[i]
		total += components[i]
		if m.idle[c]+add[c] > m.sizes[c]-m.down[c] {
			panic(fmt.Sprintf("cluster: Release of %d on cluster %d with %d idle exceeds its %d up processors",
				add[c], c, m.idle[c], m.sizes[c]-m.down[c]))
		}
	}
	if total > m.busy {
		panic(fmt.Sprintf("cluster: Release of %d processors with only %d busy", total, m.busy))
	}
	for i, c := range placement {
		m.idle[c] += components[i]
		m.busy -= components[i]
	}
}
