package workload

import (
	"fmt"
	"math"

	"coalloc/internal/dastrace"
	"coalloc/internal/dist"
	"coalloc/internal/rng"
	"coalloc/internal/stats"
)

// DefaultExtensionFactor is the paper's wide-area communication slowdown
// applied to multi-component jobs (Section 2.4: "We use 1.25 as the
// extension factor of the service times of multi-component jobs").
const DefaultExtensionFactor = 1.25

// ServiceCut is the DAS-t-900 cutoff in seconds.
const ServiceCut = 900.0

// Spec bundles everything needed to sample jobs.
type Spec struct {
	// Sizes is the total-job-size distribution (DAS-s-128 or DAS-s-64).
	Sizes *dist.EmpiricalInt
	// Service is the net service-time distribution (DAS-t-900).
	Service dist.Continuous
	// ComponentLimit is the maximum job-component size (16, 24 or 32).
	ComponentLimit int
	// Clusters is the number of clusters jobs may be split across. For
	// the single-cluster reference system use 1: every request then has
	// one component (a "total request").
	Clusters int
	// ExtensionFactor multiplies the service time of multi-component
	// jobs. 1.0 disables the wide-area penalty.
	ExtensionFactor float64
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	switch {
	case s.Sizes == nil:
		return fmt.Errorf("workload: Spec.Sizes is nil")
	case s.Service == nil:
		return fmt.Errorf("workload: Spec.Service is nil")
	case s.ComponentLimit <= 0:
		return fmt.Errorf("workload: component limit %d must be positive", s.ComponentLimit)
	case s.Clusters <= 0:
		return fmt.Errorf("workload: cluster count %d must be positive", s.Clusters)
	case !(s.ExtensionFactor >= 1) || math.IsInf(s.ExtensionFactor, 0):
		return fmt.Errorf("workload: extension factor %g must be >= 1 and finite", s.ExtensionFactor)
	}
	return nil
}

// Sample draws one job (sizes, components, service time). The caller
// assigns ID, arrival time and queue.
//
// The returned Job and its slices are owned by the caller: they are
// freshly heap-allocated and never aliased by later Sample calls, so
// callers may retain or mutate them freely. (Arena-backed sampling via
// SampleInto has the opposite contract — see Arena.)
func (s *Spec) Sample(sizeStream, svcStream *rng.Stream) *Job {
	return s.SampleInto(nil, sizeStream, svcStream)
}

// MeanGrossWork returns the expected gross work per job in
// processor-seconds: E[size * service * extension], using the independence
// of sizes and service times assumed by the model.
func (s *Spec) MeanGrossWork() float64 {
	return s.weightedMeanSize(s.ExtensionFactor) * s.Service.Mean()
}

// GrossNetRatio returns the ratio of gross to net utilization for this
// workload: the quotient of the mean total job size weighted by the
// extension factor for multi-component jobs, and the unweighted mean
// (Section 4 of the paper). It is independent of the scheduling policy.
func (s *Spec) GrossNetRatio() float64 {
	return s.weightedMeanSize(s.ExtensionFactor) / s.Sizes.Mean()
}

// weightedMeanSize returns E[size * w(size)] where w is ext for sizes that
// split into more than one component and 1 otherwise.
func (s *Spec) weightedMeanSize(ext float64) float64 {
	var m float64
	for _, v := range s.Sizes.Values() {
		w := 1.0
		if NumComponents(v, s.ComponentLimit, s.Clusters) > 1 {
			w = ext
		}
		m += float64(v) * w * s.Sizes.Prob(v)
	}
	return m
}

// MultiComponentFraction returns the probability that a job has more than
// one component — the quantity the paper quotes per component-size limit
// (e.g. "48.7% multi-component jobs" at limit 16).
func (s *Spec) MultiComponentFraction() float64 {
	var f float64
	for _, v := range s.Sizes.Values() {
		if NumComponents(v, s.ComponentLimit, s.Clusters) > 1 {
			f += s.Sizes.Prob(v)
		}
	}
	return f
}

// ComponentCountFractions returns the distribution of the number of
// components per job, indexed 1..Clusters — the paper's Table 2.
func (s *Spec) ComponentCountFractions() []float64 {
	fr := make([]float64, s.Clusters+1)
	for _, v := range s.Sizes.Values() {
		fr[NumComponents(v, s.ComponentLimit, s.Clusters)] += s.Sizes.Prob(v)
	}
	return fr[1:]
}

// ArrivalRateForGrossUtilization returns the Poisson arrival rate lambda
// that offers the given gross utilization on a system with the given total
// processor count: rho_gross = lambda * E[gross work] / P.
func (s *Spec) ArrivalRateForGrossUtilization(util float64, processors int) float64 {
	if util <= 0 || processors <= 0 {
		panic(fmt.Sprintf("workload: bad utilization %g or processors %d", util, processors))
	}
	return util * float64(processors) / s.MeanGrossWork()
}

// Distributions derived from a trace ----------------------------------------

// Derived holds the empirical distributions sampled from a job log.
type Derived struct {
	// Sizes128 is the full job-size distribution (DAS-s-128).
	Sizes128 *dist.EmpiricalInt
	// Sizes64 is the distribution cut at 64 (DAS-s-64).
	Sizes64 *dist.EmpiricalInt
	// Service is the service-time distribution cut at 900 s (DAS-t-900).
	Service *dist.EmpiricalCont
	// ExcludedBy64 is the fraction of jobs the 64-processor cap removes.
	ExcludedBy64 float64
}

// Derive builds the paper's three distributions from a log.
func Derive(recs []dastrace.Record) Derived {
	if len(recs) == 0 {
		panic("workload: Derive with empty trace")
	}
	sizeCount := stats.NewIntCounter()
	var svc []float64
	for _, r := range recs {
		sizeCount.Add(r.Size)
		if r.Service <= ServiceCut {
			svc = append(svc, r.Service)
		}
	}
	values := sizeCount.Values()
	weights := make([]float64, len(values))
	for i, v := range values {
		weights[i] = float64(sizeCount.Count(v))
	}
	s128 := dist.NewEmpiricalInt(values, weights)
	return Derived{
		Sizes128:     s128,
		Sizes64:      s128.CutAt(64),
		Service:      dist.NewEmpiricalCont(svc),
		ExcludedBy64: s128.MassAbove(64),
	}
}

// DeriveDefault derives the distributions from the canonical synthetic DAS
// log (fixed seed), the workload used by all paper experiments.
func DeriveDefault() Derived { return Derive(dastrace.Default()) }
