package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts observations in equal-width bins over [lo, hi); values
// outside the range are not counted. It backs the density plots of Figs. 1
// and 2 of the paper.
type Histogram struct {
	lo, hi float64
	width  float64
	counts []int64
}

// NewHistogram creates a histogram with bins equal-width bins on [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if !(hi > lo) {
		panic("stats: NewHistogram with empty range")
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]int64, bins),
	}
}

// Add tallies one observation; values outside [lo, hi) are ignored.
func (h *Histogram) Add(x float64) {
	if x < h.lo || x >= h.hi {
		return
	}
	i := int((x - h.lo) / h.width)
	if i >= len(h.counts) { // guard against floating-point edge
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the tally of bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// BinRange returns the half-open interval covered by bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	lo = h.lo + float64(i)*h.width
	return lo, lo + h.width
}

// Render draws the histogram as rows of '#' characters, one row per bin,
// scaled so the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	var max int64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		lo, hi := h.BinRange(i)
		bar := 0
		if max > 0 {
			bar = int(math.Round(float64(c) / float64(max) * float64(width)))
		}
		fmt.Fprintf(&b, "[%8.1f,%8.1f) %8d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// IntCounter tallies integer-valued observations exactly, preserving every
// distinct value — the right shape for job-size densities where the paper
// distinguishes powers of two from all other sizes.
type IntCounter struct {
	counts map[int]int64
	total  int64
}

// NewIntCounter returns an empty counter.
func NewIntCounter() *IntCounter {
	return &IntCounter{counts: make(map[int]int64)}
}

// Add tallies one observation of value v.
func (c *IntCounter) Add(v int) {
	c.counts[v]++
	c.total++
}

// Count returns the tally for value v.
func (c *IntCounter) Count(v int) int64 { return c.counts[v] }

// Fraction returns the share of observations equal to v.
func (c *IntCounter) Fraction(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[v]) / float64(c.total)
}

// Distinct returns the number of distinct values observed.
func (c *IntCounter) Distinct() int { return len(c.counts) }

// Values returns the observed values in increasing order.
func (c *IntCounter) Values() []int {
	vs := make([]int, 0, len(c.counts))
	for v := range c.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Mean returns the sample mean of the observations.
func (c *IntCounter) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	// Sorted iteration fixes the float accumulation order — and with it
	// the last-bit rounding — across runs (detlint rule nomaprange).
	for _, v := range c.Values() {
		sum += float64(v) * float64(c.counts[v])
	}
	return sum / float64(c.total)
}

// CV returns the coefficient of variation of the observations.
func (c *IntCounter) CV() float64 {
	if c.total == 0 {
		return 0
	}
	mean := c.Mean()
	if mean == 0 {
		return 0
	}
	var ss float64
	// Sorted iteration, as in Mean: deterministic rounding.
	for _, v := range c.Values() {
		d := float64(v) - mean
		ss += d * d * float64(c.counts[v])
	}
	return math.Sqrt(ss/float64(c.total)) / mean
}
