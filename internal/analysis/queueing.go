// Package analysis provides closed-form queueing results used to validate
// the simulator on degenerate configurations (single cluster, unit-size
// jobs) and to sanity-bound the multicluster measurements. The paper's
// companion work (Bucur & Epema, IPDPS 2003) studies the maximal
// utilization of co-allocation analytically for exponential service times;
// the helpers here cover the textbook building blocks of that analysis.
package analysis

import (
	"fmt"
	"math"
)

// MM1MeanResponse returns the mean response time of an M/M/1 queue with
// arrival rate lambda and service rate mu: 1/(mu - lambda). It returns
// +Inf for an unstable queue.
func MM1MeanResponse(lambda, mu float64) float64 {
	if lambda < 0 || mu <= 0 {
		panic(fmt.Sprintf("analysis: MM1MeanResponse(%g, %g)", lambda, mu))
	}
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// ErlangB returns the Erlang-B blocking probability for offered load a
// (in Erlangs) and c servers, computed by the standard stable recurrence.
func ErlangB(a float64, c int) float64 {
	if a < 0 || c < 0 {
		panic(fmt.Sprintf("analysis: ErlangB(%g, %d)", a, c))
	}
	if a == 0 {
		if c == 0 {
			return 1
		}
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability that an arriving job must wait in an
// M/M/c queue with offered load a = lambda/mu Erlangs. It returns 1 for
// a >= c (an unstable system never has a free server in steady state).
func ErlangC(a float64, c int) float64 {
	if c <= 0 {
		panic(fmt.Sprintf("analysis: ErlangC(%g, %d)", a, c))
	}
	if a >= float64(c) {
		return 1
	}
	b := ErlangB(a, c)
	rho := a / float64(c)
	return b / (1 - rho + rho*b)
}

// MMcMeanResponse returns the mean response time of an M/M/c queue with
// arrival rate lambda and per-server service rate mu.
func MMcMeanResponse(lambda, mu float64, c int) float64 {
	if lambda < 0 || mu <= 0 || c <= 0 {
		panic(fmt.Sprintf("analysis: MMcMeanResponse(%g, %g, %d)", lambda, mu, c))
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	wq := ErlangC(a, c) / (float64(c)*mu - lambda)
	return wq + 1/mu
}

// BatchServerMaxUtilization bounds the maximal utilization of a
// single-cluster FCFS system with processor capacity p serving jobs whose
// sizes are given by the discrete distribution (sizes, probs): under
// constant backlog, consecutive head-of-line jobs are packed greedily into
// the machine, and utilization cannot exceed the expected packed fraction
//
//	E[sum of sizes packed before overflow] / (p * E[number of fills]).
//
// This is a simple renewal upper bound — packing stops at the first job
// that does not fit (strict FCFS), so the expected wasted capacity per
// "fill" is driven by the overshoot of the size distribution. The bound
// ignores the temporal dimension (jobs finish at different times), which
// makes it optimistic; the simulated maximal utilization must stay below
// it. Both the bound and the comparison are exercised in the tests.
func BatchServerMaxUtilization(sizes []int, probs []float64, p int) float64 {
	if len(sizes) == 0 || len(sizes) != len(probs) || p <= 0 {
		panic("analysis: BatchServerMaxUtilization needs matching non-empty inputs")
	}
	// Dynamic program over residual capacity: expected packed amount
	// starting from capacity r, E[r] = sum_s P(s) * (s + E[r-s] if s<=r
	// else 0 stopping). Expected fill = E[p]; utilization bound =
	// E[p]/p.
	memo := make([]float64, p+1)
	computed := make([]bool, p+1)
	var fill func(r int) float64
	fill = func(r int) float64 {
		if r <= 0 {
			return 0
		}
		if computed[r] {
			return memo[r]
		}
		computed[r] = true // guard against cycles (sizes >= 1 ensures none)
		var e float64
		for i, s := range sizes {
			if s <= 0 {
				panic("analysis: non-positive job size")
			}
			if s <= r {
				e += probs[i] * (float64(s) + fill(r-s))
			}
		}
		memo[r] = e
		return e
	}
	return fill(p) / float64(p)
}
