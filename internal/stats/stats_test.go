package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	// Population variance is 4, sample variance 32/7.
	if !almost(w.Variance(), 32.0/7, 1e-12) {
		t.Errorf("variance = %g, want %g", w.Variance(), 32.0/7)
	}
	if w.Max() != 9 {
		t.Errorf("max = %g", w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 || w.CV() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Variance() != 0 {
		t.Errorf("variance of one observation = %g", w.Variance())
	}
}

// TestWelfordMatchesNaive is a property test against the two-pass formulas.
func TestWelfordMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return almost(w.Mean(), mean, 1e-9) && almost(w.Variance(), naiveVar, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedUtilization(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(0, 0)
	tw.Set(10, 4) // level 0 for [0,10)
	tw.Set(20, 2) // level 4 for [10,20)
	tw.Set(40, 0) // level 2 for [20,40)
	// integral = 0*10 + 4*10 + 2*20 = 80; average over [0,50] with level 0 after 40.
	if got := tw.Integral(50); got != 80 {
		t.Errorf("integral = %g, want 80", got)
	}
	if got := tw.Average(50); !almost(got, 1.6, 1e-12) {
		t.Errorf("average = %g, want 1.6", got)
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(0, 1)
	tw.Add(5, 2)
	tw.Add(10, -3)
	if tw.Level() != 0 {
		t.Errorf("level = %g, want 0", tw.Level())
	}
	// 1*5 + 3*5 = 20
	if got := tw.Integral(10); got != 20 {
		t.Errorf("integral = %g, want 20", got)
	}
}

func TestTimeWeightedRestart(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(0, 3)
	tw.Set(10, 5)
	tw.StartAt(10, 5) // warmup reset
	tw.Set(20, 0)
	if got := tw.Average(20); !almost(got, 5, 1e-12) {
		t.Errorf("average after restart = %g, want 5", got)
	}
}

func TestTimeWeightedDecreasingTimePanics(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(10, 0)
	defer func() {
		if recover() == nil {
			t.Error("decreasing time did not panic")
		}
	}()
	tw.Set(5, 1)
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5.5, 9.99, 10, -1, 100} {
		h.Add(x)
	}
	if h.Count(0) != 2 { // 0 and 1.9
		t.Errorf("bin 0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 1 { // 2
		t.Errorf("bin 1 = %d, want 1", h.Count(1))
	}
	if h.Count(4) != 1 { // 9.99; 10, -1 and 100 are out of range
		t.Errorf("bin 4 = %d, want 1", h.Count(4))
	}
	lo, hi := h.BinRange(2)
	if lo != 4 || hi != 6 {
		t.Errorf("bin 2 range [%g,%g), want [4,6)", lo, hi)
	}
}

func TestHistogramConservation(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(-5, 5, 1+r.Intn(20))
		n := 1 + r.Intn(500)
		var inRange int64
		for i := 0; i < n; i++ {
			x := r.NormFloat64() * 4
			if x >= -5 && x < 5 {
				inRange++
			}
			h.Add(x)
		}
		var inBins int64
		for i := 0; i < h.Bins(); i++ {
			inBins += h.Count(i)
		}
		return inBins == inRange
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(0.6)
	h.Add(1.5)
	out := h.Render(10)
	if out == "" {
		t.Error("empty render")
	}
}

func TestIntCounter(t *testing.T) {
	c := NewIntCounter()
	c.Add(1)
	c.Add(1)
	c.Add(4)
	c.Add(4)
	if c.total != 4 || c.Distinct() != 2 {
		t.Errorf("total %d distinct %d", c.total, c.Distinct())
	}
	if c.Count(1) != 2 || c.Count(4) != 2 || c.Count(9) != 0 {
		t.Error("bad counts")
	}
	if !almost(c.Mean(), 2.5, 1e-12) {
		t.Errorf("mean = %g", c.Mean())
	}
	// variance = ((1-2.5)^2*2 + (4-2.5)^2*2)/4 = 2.25; CV = 1.5/2.5
	if !almost(c.CV(), 0.6, 1e-12) {
		t.Errorf("CV = %g", c.CV())
	}
	vs := c.Values()
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 4 {
		t.Errorf("values = %v", vs)
	}
	if !almost(c.Fraction(1), 0.5, 1e-12) {
		t.Errorf("fraction = %g", c.Fraction(1))
	}
}

func TestBatchMeansIID(t *testing.T) {
	// For i.i.d. observations the batch-means interval should cover the
	// true mean; with a fixed seed this is deterministic.
	r := rand.New(rand.NewSource(5))
	bm := NewBatchMeans(100)
	const trueMean = 7.0
	for i := 0; i < 10000; i++ {
		bm.Add(trueMean + r.NormFloat64())
	}
	if bm.batches.N() != 100 {
		t.Errorf("batches = %d, want 100", bm.batches.N())
	}
	hw := bm.HalfWidth()
	if math.Abs(bm.batches.Mean()-trueMean) > hw {
		t.Errorf("interval %.3f +- %.3f misses true mean %g", bm.batches.Mean(), hw, trueMean)
	}
	if hw <= 0 || hw > 0.1 {
		t.Errorf("implausible half-width %g", hw)
	}
}

func TestBatchMeansFewBatches(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 15; i++ {
		bm.Add(1)
	}
	if bm.batches.N() != 1 {
		t.Errorf("batches = %d", bm.batches.N())
	}
	if !math.IsInf(bm.HalfWidth(), 1) {
		t.Error("half-width with one batch should be +Inf")
	}
}

func TestTQuantile(t *testing.T) {
	if got := tQuantile(1); got != 12.706 {
		t.Errorf("t(1) = %g", got)
	}
	if got := tQuantile(10); got != 2.228 {
		t.Errorf("t(10) = %g", got)
	}
	// Between entries: conservative (next lower df).
	if got := tQuantile(13); got != 2.179 {
		t.Errorf("t(13) = %g, want the df=12 value", got)
	}
	// The end of the table: df 120 is the last entry, df 121 switches to
	// the normal limit.
	if got := tQuantile(120); got != 1.980 {
		t.Errorf("t(120) = %g, want 1.980", got)
	}
	if got := tQuantile(121); got != 1.960 {
		t.Errorf("t(121) = %g, want the normal limit 1.960", got)
	}
	if got := tQuantile(1000); got != 1.960 {
		t.Errorf("t(1000) = %g, want normal limit", got)
	}
	if got := tQuantile(0); !math.IsInf(got, 1) {
		t.Errorf("t(0) = %g, want +Inf", got)
	}
	// Monotone decreasing in df.
	prev := math.Inf(1)
	for df := int64(1); df <= 200; df++ {
		v := tQuantile(df)
		if v > prev {
			t.Fatalf("tQuantile not nonincreasing at df=%d: %g > %g", df, v, prev)
		}
		prev = v
	}
}

// TestHalfWidthPinned pins Welford.HalfWidth bit for bit to the formula
// t·s/√n with the 95% critical value written out, on both sides of the end
// of the t table, and checks that BatchMeans reports the same value over
// its batch means.
func TestHalfWidthPinned(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		n    int
		crit float64 // t_{n-1, 0.975}
	}{
		{2, 12.706},
		{121, 1.980},
		{122, 1.960},
	} {
		var w Welford
		bm := NewBatchMeans(1)
		for i := 0; i < c.n; i++ {
			x := 100 + 30*r.NormFloat64()
			w.Add(x)
			bm.Add(x)
		}
		want := c.crit * w.StdDev() / math.Sqrt(float64(c.n))
		if got := w.HalfWidth(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: HalfWidth = %v, want %v", c.n, got, want)
		}
		if got := bm.HalfWidth(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: BatchMeans.HalfWidth = %v, want %v", c.n, got, want)
		}
	}
	var w Welford
	w.Add(5)
	if got := w.HalfWidth(); !math.IsInf(got, 1) {
		t.Errorf("n=1: HalfWidth = %g, want +Inf", got)
	}
}
