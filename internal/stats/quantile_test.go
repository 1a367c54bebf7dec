package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile computes the interpolated sample quantile for reference.
func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return s[lo]
	}
	frac := r - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func TestP2AgainstExactUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []float64{0.5, 0.9, 0.95} {
		q := NewP2Quantile(p)
		xs := make([]float64, 50000)
		for i := range xs {
			xs[i] = r.Float64() * 100
			q.Add(xs[i])
		}
		want := exactQuantile(xs, p)
		if math.Abs(q.Value()-want) > 1.0 { // 1% of the range
			t.Errorf("p=%.2f: P2 %.2f, exact %.2f", p, q.Value(), want)
		}
	}
}

func TestP2AgainstExactExponential(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	q := NewP2Quantile(0.95)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 100
		q.Add(xs[i])
	}
	want := exactQuantile(xs, 0.95)
	if math.Abs(q.Value()-want)/want > 0.05 {
		t.Errorf("exp p95: P2 %.2f, exact %.2f", q.Value(), want)
	}
}

func TestP2SmallSamples(t *testing.T) {
	q := NewP2Quantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Error("empty estimator should report NaN")
	}
	q.Add(10)
	if q.Value() != 10 {
		t.Errorf("single observation median %g", q.Value())
	}
	q.Add(20)
	if got := q.Value(); got != 15 {
		t.Errorf("two-observation median %g, want 15", got)
	}
	q.Add(30)
	q.Add(40)
	if got := q.Value(); got != 25 {
		t.Errorf("four-observation median %g, want 25", got)
	}
}

func TestP2ExactlyFive(t *testing.T) {
	q := NewP2Quantile(0.5)
	for _, x := range []float64{5, 1, 4, 2, 3} {
		q.Add(x)
	}
	if got := q.Value(); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	if q.N() != 5 {
		t.Errorf("N = %d", q.N())
	}
}

func TestP2MonotoneData(t *testing.T) {
	q := NewP2Quantile(0.5)
	for i := 1; i <= 10001; i++ {
		q.Add(float64(i))
	}
	if math.Abs(q.Value()-5001) > 50 {
		t.Errorf("median of 1..10001 estimated %g", q.Value())
	}
}

func TestP2Reset(t *testing.T) {
	q := NewP2Quantile(0.9)
	for i := 0; i < 100; i++ {
		q.Add(float64(i))
	}
	q.Reset()
	if q.N() != 0 || !math.IsNaN(q.Value()) || q.P() != 0.9 {
		t.Error("Reset did not restore initial state")
	}
}

func TestP2Panics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() { recover() }()
			NewP2Quantile(p)
			t.Errorf("NewP2Quantile(%g) did not panic", p)
		}()
	}
}

func TestP2EstimateWithinObservedRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	q := NewP2Quantile(0.9)
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < 5000; i++ {
		x := r.NormFloat64()*10 + 50
		min = math.Min(min, x)
		max = math.Max(max, x)
		q.Add(x)
		if i >= 5 {
			if v := q.Value(); v < min || v > max {
				t.Fatalf("estimate %g escaped the observed range [%g, %g]", v, min, max)
			}
		}
	}
}

func TestQuantileSet(t *testing.T) {
	s := NewQuantileSet()
	q90 := NewP2Quantile(0.90)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		x := r.Float64()
		s.Add(x)
		q90.Add(x)
	}
	if math.Abs(s.Q50.Value()-0.5) > 0.02 {
		t.Errorf("median %g", s.Q50.Value())
	}
	if math.Abs(q90.Value()-0.9) > 0.02 {
		t.Errorf("p90 %g", q90.Value())
	}
	if math.Abs(s.Q95.Value()-0.95) > 0.02 {
		t.Errorf("p95 %g", s.Q95.Value())
	}
	if !(s.Q50.Value() < q90.Value() && q90.Value() < s.Q95.Value()) {
		t.Error("quantiles out of order")
	}
	s.Reset()
	if s.Q50.N() != 0 {
		t.Error("Reset did not clear the set")
	}
}
