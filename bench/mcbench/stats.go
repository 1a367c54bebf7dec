package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method Python's statistics.quantiles(xs, n=4) uses (the
// "exclusive" method), so the spreads this program reports are the ones a
// reader recomputes from the recorded samples. A single sample is its own
// quartiles; an empty input gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN when empty: the second quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// summary is one metric over a run's repetitions: the median as the value,
// with the sample count and range.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Value: median(xs), Unit: unit, N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}
