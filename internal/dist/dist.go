// Package dist provides the random-variate generators the workload model
// draws from: the exponential interarrival times of the paper's open
// system, empirical distributions sampled from the (synthetic) DAS trace,
// and the gamma distribution the parametric workload model fits.
package dist

import (
	"fmt"
	"math"

	"coalloc/internal/rng"
)

// Continuous is a real-valued distribution.
type Continuous interface {
	// Sample draws one variate using the given stream.
	Sample(r *rng.Stream) float64
	// Mean returns the expected value.
	Mean() float64
}

// Exponential is the exponential distribution with the given rate
// (mean 1/Rate). The paper uses it for job interarrival times.
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution; it panics unless
// rate > 0.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: exponential rate %g must be positive", rate))
	}
	return Exponential{Rate: rate}
}

// Sample draws an exponential variate by inversion.
func (d Exponential) Sample(r *rng.Stream) float64 { return r.Exp(d.Rate) }

// Mean returns 1/Rate.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// Gamma is the gamma distribution with the given shape and rate (mean
// Shape/Rate). Sampling uses the Marsaglia-Tsang squeeze method, with the
// standard boost for shapes below one.
type Gamma struct {
	Shape, Rate float64
}

// NewGamma validates and returns a gamma distribution.
func NewGamma(shape, rate float64) Gamma {
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("dist: Gamma(%g, %g) needs positive parameters", shape, rate))
	}
	return Gamma{Shape: shape, Rate: rate}
}

// Sample draws a gamma variate.
func (d Gamma) Sample(r *rng.Stream) float64 {
	shape := d.Shape
	boost := 1.0
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		boost = math.Pow(r.OpenFloat64(), 1/shape)
		shape++
	}
	dd := shape - 1.0/3
	c := 1 / math.Sqrt(9*dd)
	for {
		var x, v float64
		for {
			x = r.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.OpenFloat64()
		if u < 1-0.0331*x*x*x*x {
			return boost * dd * v / d.Rate
		}
		if math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.Rate
		}
	}
}

// Mean returns Shape/Rate.
func (d Gamma) Mean() float64 { return d.Shape / d.Rate }
