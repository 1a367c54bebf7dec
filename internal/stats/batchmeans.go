package stats

import "math"

// BatchMeans estimates a confidence interval for the steady-state mean of a
// correlated output sequence (per-job response times) by the method of
// nonoverlapping batch means: consecutive observations are grouped into
// batches, whose means are approximately independent when batches are long
// enough, and a Student-t interval is formed over the batch means.
type BatchMeans struct {
	batchSize int64
	current   Welford
	batches   Welford
}

// NewBatchMeans groups observations into batches of the given size.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: NewBatchMeans with non-positive batch size")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add incorporates one observation.
func (b *BatchMeans) Add(x float64) {
	b.current.Add(x)
	if b.current.N() == b.batchSize {
		b.batches.Add(b.current.Mean())
		b.current.Reset()
	}
}

// HalfWidth returns the half-width of the 95% confidence interval over the
// completed batch means. It returns +Inf with fewer than 2 batches.
func (b *BatchMeans) HalfWidth() float64 { return b.batches.HalfWidth() }

// tEntry is one Student-t critical-value row: degrees of freedom and the
// two-sided 95% critical value t_{df, 0.975}.
type tEntry struct {
	df int64
	t  float64
}

// tTable95 holds the critical values for the 95% confidence level in
// increasing df order; the normal limit 1.960 covers df > 120. A sorted
// slice rather than a map keeps the lookup scan deterministic (detlint
// rule nomaprange).
var tTable95 = []tEntry{
	{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
	{6, 2.447}, {7, 2.365}, {8, 2.306}, {9, 2.262}, {10, 2.228},
	{12, 2.179}, {15, 2.131}, {20, 2.086}, {25, 2.060}, {30, 2.042},
	{40, 2.021}, {60, 2.000}, {120, 1.980},
}

// tQuantile returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values between table entries use the
// next-lower df, which is conservative (wider interval).
func tQuantile(df int64) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df > tTable95[len(tTable95)-1].df {
		return 1.960
	}
	// Largest tabulated df not exceeding the requested one.
	best := tTable95[0]
	for _, e := range tTable95 {
		if e.df > df {
			break
		}
		best = e
	}
	return best.t
}
