package dist

import (
	"math"
	"testing"
	"testing/quick"

	"coalloc/internal/rng"
)

func sampleMeanCV(d Continuous, n int, seed uint64) (mean, cv float64) {
	r := rng.NewStream(seed)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

func TestExponential(t *testing.T) {
	d := NewExponential(0.5)
	if d.Mean() != 2 {
		t.Errorf("mean = %g", d.Mean())
	}
	mean, cv := sampleMeanCV(d, 200000, 1)
	if math.Abs(mean-2)/2 > 0.02 {
		t.Errorf("sample mean = %g, want 2", mean)
	}
	if math.Abs(cv-1) > 0.03 {
		t.Errorf("exponential CV = %g, want 1", cv)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewExponential(-1) did not panic")
		}
	}()
	NewExponential(-1)
}

func TestEmpiricalIntProbabilities(t *testing.T) {
	d := NewEmpiricalInt([]int{1, 2, 4}, []float64{1, 2, 1})
	if got := d.Prob(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(2) = %g, want 0.5", got)
	}
	if got := d.Prob(3); got != 0 {
		t.Errorf("P(3) = %g, want 0", got)
	}
	if d.Mean() != (1*0.25 + 2*0.5 + 4*0.25) {
		t.Errorf("mean = %g", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 4 {
		t.Errorf("support [%d,%d]", d.Min(), d.Max())
	}
}

func TestEmpiricalIntMergesDuplicates(t *testing.T) {
	d := NewEmpiricalInt([]int{5, 5, 7}, []float64{1, 1, 2})
	if got := d.Prob(5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(5) = %g, want 0.5", got)
	}
	if len(d.Values()) != 2 {
		t.Errorf("support size %d, want 2", len(d.Values()))
	}
}

func TestEmpiricalIntSampleFrequencies(t *testing.T) {
	d := NewEmpiricalInt([]int{1, 2, 3, 4}, []float64{0.1, 0.2, 0.3, 0.4})
	r := rng.NewStream(7)
	const n = 400000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for _, v := range d.Values() {
		got := float64(counts[v]) / n
		want := d.Prob(v)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P(%d): sampled %.4f, want %.4f", v, got, want)
		}
	}
}

// TestEmpiricalIntAliasProperty: alias sampling reproduces arbitrary
// random weight vectors.
func TestEmpiricalIntAliasProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		n := 2 + r.Intn(8)
		values := make([]int, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = i
			weights[i] = r.Float64() + 0.01
		}
		d := NewEmpiricalInt(values, weights)
		const draws = 100000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[d.Sample(r)]++
		}
		for i, v := range values {
			if math.Abs(float64(counts[i])/draws-d.Prob(v)) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalIntNormalization(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		n := 1 + r.Intn(20)
		values := make([]int, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = r.Intn(100)
			weights[i] = r.Float64() * 10
		}
		// Ensure at least one positive weight.
		weights[0] += 0.5
		d := NewEmpiricalInt(values, weights)
		var total float64
		for _, v := range d.Values() {
			total += d.Prob(v)
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalIntValidation(t *testing.T) {
	cases := []struct {
		values  []int
		weights []float64
	}{
		{nil, nil},
		{[]int{1}, []float64{1, 2}},
		{[]int{1}, []float64{-1}},
		{[]int{1, 2}, []float64{0, 0}},
		{[]int{1}, []float64{math.NaN()}},
	}
	for _, c := range cases {
		func() {
			defer func() { recover() }()
			NewEmpiricalInt(c.values, c.weights)
			t.Errorf("NewEmpiricalInt(%v, %v) did not panic", c.values, c.weights)
		}()
	}
}

func TestEmpiricalIntCutAt(t *testing.T) {
	d := NewEmpiricalInt([]int{1, 64, 128}, []float64{0.5, 0.3, 0.2})
	cut := d.CutAt(64)
	if cut.Max() != 64 {
		t.Errorf("cut max = %d", cut.Max())
	}
	if got := cut.Prob(1); math.Abs(got-0.5/0.8) > 1e-12 {
		t.Errorf("renormalized P(1) = %g, want %g", got, 0.5/0.8)
	}
	if got := d.MassAbove(64); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("mass above 64 = %g", got)
	}
	func() {
		defer func() { recover() }()
		d.CutAt(0)
		t.Error("CutAt removing whole support did not panic")
	}()
}

func TestEmpiricalContBasics(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	d := NewEmpiricalCont(obs)
	if d.Mean() != 2.5 || d.Max() != 4 || d.Len() != 4 {
		t.Errorf("mean/max/len = %g/%g/%d", d.Mean(), d.Max(), d.Len())
	}
	r := rng.NewStream(9)
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		x := d.Sample(r)
		seen[x] = true
		found := false
		for _, o := range obs {
			if o == x {
				found = true
			}
		}
		if !found {
			t.Fatalf("sample %g not among observations", x)
		}
	}
	if len(seen) != 4 {
		t.Errorf("only %d distinct values resampled", len(seen))
	}
}

func TestEmpiricalContImmutable(t *testing.T) {
	obs := []float64{1, 2, 3}
	d := NewEmpiricalCont(obs)
	obs[0] = 100
	if d.Mean() != 2 {
		t.Error("NewEmpiricalCont did not copy its input")
	}
}

func TestEmpiricalContValidation(t *testing.T) {
	func() {
		defer func() { recover() }()
		NewEmpiricalCont(nil)
		t.Error("empty observations did not panic")
	}()
	func() {
		defer func() { recover() }()
		NewEmpiricalCont([]float64{math.Inf(1)})
		t.Error("non-finite observation did not panic")
	}()
}

func TestGammaMoments(t *testing.T) {
	for _, c := range []struct{ shape, rate float64 }{
		{0.5, 1}, {1, 2}, {2.5, 0.5}, {9, 3},
	} {
		d := NewGamma(c.shape, c.rate)
		wantMean := c.shape / c.rate
		wantVar := c.shape / (c.rate * c.rate)
		if d.Mean() != wantMean {
			t.Errorf("Gamma(%g,%g) analytic mean %g, want %g", c.shape, c.rate, d.Mean(), wantMean)
		}
		r := rng.NewStream(11)
		var sum, sumSq float64
		const n = 300000
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			if x <= 0 {
				t.Fatalf("non-positive gamma variate %g", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-wantMean)/wantMean > 0.02 {
			t.Errorf("Gamma(%g,%g) sample mean %.4f, want %.4f", c.shape, c.rate, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.05 {
			t.Errorf("Gamma(%g,%g) sample variance %.4f, want %.4f", c.shape, c.rate, variance, wantVar)
		}
	}
}

func TestGammaShapeOneIsExponential(t *testing.T) {
	d := NewGamma(1, 2)
	r := rng.NewStream(12)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	if math.Abs(sum/n-0.5) > 0.01 {
		t.Errorf("Gamma(1,2) mean %.4f, want 0.5", sum/n)
	}
}

func TestGammaPanics(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}} {
		func() {
			defer func() { recover() }()
			NewGamma(c[0], c[1])
			t.Errorf("NewGamma(%g, %g) did not panic", c[0], c[1])
		}()
	}
}

func TestEmpiricalIntVarianceCV(t *testing.T) {
	d := NewEmpiricalInt([]int{2, 4}, []float64{0.5, 0.5})
	// mean 3, variance 1, CV 1/3.
	if d.Variance() != 1 {
		t.Errorf("variance %g", d.Variance())
	}
	if math.Abs(d.CV()-1.0/3) > 1e-12 {
		t.Errorf("CV %g", d.CV())
	}
}

func TestEmpiricalContCV(t *testing.T) {
	d := NewEmpiricalCont([]float64{1, 3})
	// mean 2, population sd 1, CV 0.5.
	if math.Abs(d.CV()-0.5) > 1e-12 {
		t.Errorf("CV %g", d.CV())
	}
}
