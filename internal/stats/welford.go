// Package stats provides the estimators used to turn raw simulation output
// into the numbers the paper reports: sample means and variances (Welford),
// time-weighted averages (utilization), fixed- and variable-width
// histograms (the density plots of Figs. 1 and 2), batch-means confidence
// intervals for steady-state response times, and percentile summaries.
package stats

import "math"

// Welford accumulates a sample mean and variance in one pass using
// Welford's numerically stable recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x > w.max {
		w.max = x
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Max returns the largest observation, or 0 when empty.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CV returns the coefficient of variation (stddev / mean), or 0 when the
// mean is 0.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / math.Abs(w.mean)
}

// HalfWidth returns the half-width t·s/√n of the 95% Student-t confidence
// interval for the mean of the observations, or +Inf with fewer than 2.
// Every half-width the simulator reports is computed here.
func (w *Welford) HalfWidth() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return tQuantile(w.n-1) * w.StdDev() / math.Sqrt(float64(w.n))
}

// Reset returns the accumulator to its zero state.
func (w *Welford) Reset() { *w = Welford{} }

// TimeWeighted integrates a piecewise-constant function of virtual time,
// such as the number of busy processors. Average() over an interval is the
// time-average value — exactly the paper's utilization when the level is
// busy processors divided by capacity.
type TimeWeighted struct {
	started  bool
	start    float64
	last     float64
	level    float64
	integral float64
}

// StartAt begins integration at time t with level 0, discarding any
// previous state. Use it to reset at the end of a warmup period.
func (tw *TimeWeighted) StartAt(t, level float64) {
	*tw = TimeWeighted{started: true, start: t, last: t, level: level}
}

// Set records that the level changed to v at time t. Times must be
// nondecreasing.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.StartAt(t, v)
		return
	}
	if t < tw.last {
		panic("stats: TimeWeighted.Set with decreasing time")
	}
	tw.integral += tw.level * (t - tw.last)
	tw.last = t
	tw.level = v
}

// Add records a level change of +dv at time t.
func (tw *TimeWeighted) Add(t, dv float64) { tw.Set(t, tw.level+dv) }

// Level returns the current level.
func (tw *TimeWeighted) Level() float64 { return tw.level }

// Integral returns the integral of the level from the start time to t.
// Like Set, it panics when t precedes the last recorded change: silently
// returning the stale integral would misreport every average computed
// with an out-of-order clock.
func (tw *TimeWeighted) Integral(t float64) float64 {
	if !tw.started {
		return 0
	}
	if t < tw.last {
		panic("stats: TimeWeighted.Integral with decreasing time")
	}
	return tw.integral + tw.level*(t-tw.last)
}

// Average returns the time-average level over [start, t], or 0 when the
// interval is empty.
func (tw *TimeWeighted) Average(t float64) float64 {
	d := t - tw.start
	if d <= 0 {
		return 0
	}
	return tw.Integral(t) / d
}
