package dist

import (
	"fmt"
	"math"
	"sort"

	"coalloc/internal/rng"
)

// EmpiricalInt is a discrete distribution over integer values with given
// probabilities, sampled in O(1) by Walker's alias method. The paper's
// DAS-s-128 and DAS-s-64 job-size distributions are EmpiricalInt values
// built from the trace.
type EmpiricalInt struct {
	values []int
	probs  []float64
	// alias tables
	prob  []float64
	alias []int
}

// NewEmpiricalInt builds a distribution from parallel value/weight slices.
// Weights need not sum to one; they are normalized. Duplicate values are
// merged. It panics on empty input, negative weights, or all-zero weights.
func NewEmpiricalInt(values []int, weights []float64) *EmpiricalInt {
	if len(values) == 0 || len(values) != len(weights) {
		panic("dist: NewEmpiricalInt needs matching non-empty values and weights")
	}
	merged := make(map[int]float64, len(values))
	var total float64
	for i, v := range values {
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("dist: NewEmpiricalInt weight %g for value %d", w, v))
		}
		merged[v] += w
		total += w
	}
	if total <= 0 {
		panic("dist: NewEmpiricalInt weights sum to zero")
	}
	// Collect and sort the keys before any further use: map iteration
	// order is nondeterministic and must not reach the support layout
	// (detlint rule nomaprange).
	keys := make([]int, 0, len(merged))
	for v := range merged {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	vs := keys[:0]
	for _, v := range keys {
		if merged[v] > 0 {
			vs = append(vs, v)
		}
	}
	d := &EmpiricalInt{
		values: vs,
		probs:  make([]float64, len(vs)),
	}
	for i, v := range vs {
		d.probs[i] = merged[v] / total
	}
	d.buildAlias()
	return d
}

// buildAlias constructs Walker alias tables from d.probs.
func (d *EmpiricalInt) buildAlias() {
	n := len(d.probs)
	d.prob = make([]float64, n)
	d.alias = make([]int, n)
	scaled := make([]float64, n)
	var small, large []int
	for i, p := range d.probs {
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.prob[s] = scaled[s]
		d.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		d.prob[i] = 1
		d.alias[i] = i
	}
	for _, i := range small { // numerical leftovers
		d.prob[i] = 1
		d.alias[i] = i
	}
}

// Sample draws a value in O(1).
func (d *EmpiricalInt) Sample(r *rng.Stream) int {
	i := r.Intn(len(d.values))
	if r.Float64() < d.prob[i] {
		return d.values[i]
	}
	return d.values[d.alias[i]]
}

// Values returns the support in increasing order. The slice is shared; do
// not modify it.
func (d *EmpiricalInt) Values() []int { return d.values }

// Prob returns the probability of value v (0 if outside the support).
func (d *EmpiricalInt) Prob(v int) float64 {
	i := sort.SearchInts(d.values, v)
	if i < len(d.values) && d.values[i] == v {
		return d.probs[i]
	}
	return 0
}

// Mean returns the expected value.
func (d *EmpiricalInt) Mean() float64 {
	var m float64
	for i, v := range d.values {
		m += float64(v) * d.probs[i]
	}
	return m
}

// Variance returns the distribution variance.
func (d *EmpiricalInt) Variance() float64 {
	m := d.Mean()
	var s float64
	for i, v := range d.values {
		dv := float64(v) - m
		s += dv * dv * d.probs[i]
	}
	return s
}

// CV returns the coefficient of variation.
func (d *EmpiricalInt) CV() float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	return math.Sqrt(d.Variance()) / m
}

// Max returns the largest value in the support.
func (d *EmpiricalInt) Max() int { return d.values[len(d.values)-1] }

// Min returns the smallest value in the support.
func (d *EmpiricalInt) Min() int { return d.values[0] }

// CutAt returns a new distribution with all mass above max removed and the
// remainder renormalized — the paper's construction of DAS-s-64 from
// DAS-s-128 ("the log cut at 64").
func (d *EmpiricalInt) CutAt(max int) *EmpiricalInt {
	var vs []int
	var ws []float64
	for i, v := range d.values {
		if v <= max {
			vs = append(vs, v)
			ws = append(ws, d.probs[i])
		}
	}
	if len(vs) == 0 {
		panic(fmt.Sprintf("dist: CutAt(%d) removes the whole support", max))
	}
	return NewEmpiricalInt(vs, ws)
}

// MassAbove returns the probability that a variate exceeds max — the
// fraction of jobs the cut excludes.
func (d *EmpiricalInt) MassAbove(max int) float64 {
	var m float64
	for i, v := range d.values {
		if v > max {
			m += d.probs[i]
		}
	}
	return m
}

// EmpiricalCont resamples a fixed set of real observations uniformly — the
// bootstrap reading of "we use for the service-time distribution the
// distribution derived from the log". Building it from per-job trace
// records makes the simulation trace-based in the paper's sense.
type EmpiricalCont struct {
	sample []float64
	mean   float64
	cv     float64
	max    float64
}

// NewEmpiricalCont builds a resampling distribution from observations.
// It panics on empty or non-finite input.
func NewEmpiricalCont(obs []float64) *EmpiricalCont {
	if len(obs) == 0 {
		panic("dist: NewEmpiricalCont with no observations")
	}
	s := make([]float64, len(obs))
	copy(s, obs)
	var sum, max float64
	for _, x := range s {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			panic("dist: NewEmpiricalCont with non-finite observation")
		}
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(len(s))
	var ss float64
	for _, x := range s {
		d := x - mean
		ss += d * d
	}
	cv := 0.0
	if mean != 0 {
		cv = math.Sqrt(ss/float64(len(s))) / mean
	}
	return &EmpiricalCont{sample: s, mean: mean, cv: cv, max: max}
}

// Sample draws one of the observations uniformly at random.
func (d *EmpiricalCont) Sample(r *rng.Stream) float64 {
	return d.sample[r.Intn(len(d.sample))]
}

// Mean returns the sample mean of the observations.
func (d *EmpiricalCont) Mean() float64 { return d.mean }

// CV returns the coefficient of variation of the observations.
func (d *EmpiricalCont) CV() float64 { return d.cv }

// Max returns the largest observation.
func (d *EmpiricalCont) Max() float64 { return d.max }

// Len returns the number of observations.
func (d *EmpiricalCont) Len() int { return len(d.sample) }
