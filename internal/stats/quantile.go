package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile estimates a single quantile of a stream in O(1) space with
// the P² algorithm of Jain and Chlamtac (1985). The simulator uses it for
// median and tail response times, which a plain mean hides — tail latency
// is where FCFS head-of-line blocking shows up first.
type P2Quantile struct {
	p       float64
	n       int64
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	inc     [5]float64 // desired position increments
	initial []float64  // first five observations
}

// NewP2Quantile estimates the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: NewP2Quantile(%g)", p))
	}
	q := &P2Quantile{p: p}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// P returns the quantile being estimated.
func (q *P2Quantile) P() float64 { return q.p }

// N returns the number of observations.
func (q *P2Quantile) N() int64 { return q.n }

// Add incorporates one observation.
func (q *P2Quantile) Add(x float64) {
	q.n++
	if q.n <= 5 {
		q.initial = append(q.initial, x)
		if q.n == 5 {
			sort.Float64s(q.initial)
			copy(q.heights[:], q.initial)
			q.pos = [5]float64{1, 2, 3, 4, 5}
			q.initial = nil
		}
		return
	}

	// Locate the cell containing x and clamp the extremes.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.inc[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			h := q.parabolic(i, s)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

// parabolic applies the piecewise-parabolic prediction formula.
func (q *P2Quantile) parabolic(i int, s float64) float64 {
	return q.heights[i] + s/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+s)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-s)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear falls back to linear interpolation toward the neighbor.
func (q *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return q.heights[i] + s*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it interpolates the sorted sample; with none it returns NaN.
func (q *P2Quantile) Value() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if q.n < 5 {
		s := append([]float64(nil), q.initial...)
		sort.Float64s(s)
		// Nearest-rank interpolation on the small sample.
		r := q.p * float64(len(s)-1)
		lo := int(math.Floor(r))
		hi := int(math.Ceil(r))
		if lo == hi {
			return s[lo]
		}
		frac := r - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return q.heights[2]
}

// Reset discards all observations.
func (q *P2Quantile) Reset() {
	p := q.p
	*q = *NewP2Quantile(p)
}

// QuantileSet bundles the response-time quantiles a Result reports: the
// median and the 95th percentile.
type QuantileSet struct {
	Q50, Q95 *P2Quantile
}

// NewQuantileSet returns estimators for the 50th and 95th percentile.
func NewQuantileSet() *QuantileSet {
	return &QuantileSet{
		Q50: NewP2Quantile(0.50),
		Q95: NewP2Quantile(0.95),
	}
}

// Add feeds both estimators.
func (s *QuantileSet) Add(x float64) {
	s.Q50.Add(x)
	s.Q95.Add(x)
}

// Reset discards all observations.
func (s *QuantileSet) Reset() {
	s.Q50.Reset()
	s.Q95.Reset()
}
