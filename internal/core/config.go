// Package core is the simulator proper: it wires the workload model, the
// multicluster, and a scheduling policy to the discrete-event engine and
// produces the metrics the paper reports — mean response times (total and
// per queue), gross and net utilization, and the maximal utilization
// reached under a constant backlog.
package core

import (
	"fmt"
	"math"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/policies"
	"coalloc/internal/workload"
)

// Config describes one open-system simulation run: Poisson arrivals at a
// fixed rate into a multicluster under one policy.
type Config struct {
	// ClusterSizes gives the processor count of each cluster. The
	// paper's multicluster is {32, 32, 32, 32}; the SC reference
	// is {128}.
	ClusterSizes []int
	// Spec is the workload (sizes, service times, splitting, extension).
	// Spec.Clusters must equal len(ClusterSizes).
	Spec workload.Spec
	// Policy is one of PolicyNames: the paper's GS, LS, LP and SC, or an
	// extension (backfilling, shortest-first, LS-sorted).
	Policy string
	// RequestType selects the request structure (default Unordered).
	// Ordered, Flexible and Total requests are supported by the GS and
	// SC policies only.
	RequestType workload.RequestType
	// Fit is the placement rule (the paper uses Worst Fit, the zero value).
	Fit cluster.Fit
	// Lookahead bounds the number of queued jobs that receive
	// reservations per conservative-backfilling pass. 0 means the default
	// (policies.DefaultLookahead, 32); explicit values must be >= 1. A
	// pass that truncates the queue at the cap reports it under the
	// sched.lookahead_truncated counter, so the bound is never silent.
	Lookahead int
	// ArrivalRate is the Poisson arrival rate in jobs per second. Set it
	// directly or via Spec.ArrivalRateForGrossUtilization.
	ArrivalRate float64
	// QueueWeights routes jobs to local queues. Its length must equal
	// the number of clusters; it is normalized. Nil means balanced.
	// The paper's unbalanced case is {0.4, 0.2, 0.2, 0.2}.
	QueueWeights []float64
	// WarmupJobs is the number of departures discarded before
	// measurement starts. Default 2000; set NoWarmup to measure from
	// time zero instead (WarmupJobs == 0 alone means "use the default").
	WarmupJobs int
	// NoWarmup disables the warmup period entirely: measurement starts
	// at virtual time zero, before the first arrival.
	NoWarmup bool
	// MeasureJobs is the number of measured departures. Default 20000.
	MeasureJobs int
	// Seed selects the random streams.
	Seed uint64
	// Observer, when non-nil, receives the run's metrics and (optionally)
	// its JSONL event trace. An Observer is single-threaded: attaching
	// one makes RunReplications execute its replications serially.
	Observer *obs.Observer
	// TraceProvider, when non-nil, resolves a pre-generated workload
	// record (see NewTrace) for the run's seed, which the run replays
	// instead of sampling jobs live; return nil to fall back to live
	// sampling for that seed. The trace's seed and arrival rate must
	// match the run's. Sweeps use this to run every policy on the
	// identical job stream (common random numbers), and RunReplications
	// derives a distinct seed per replication, so a provider is how a
	// replicated run shares workloads. Only Unordered requests can be
	// traced.
	TraceProvider func(seed uint64) *Trace
	// SaturationCutoff enables the early divergence monitor: the run
	// samples its backlog growth at fixed completed-job checkpoints and
	// halts as soon as the growth provably exceeds the end-of-run
	// saturation heuristic (see run.go). A run the monitor stops is
	// marked Saturated with TruncatedJobs > 0; a run the monitor never
	// stops is bit-identical to one with the monitor off — the
	// checkpoints only read state, they never draw from a stream or
	// schedule an event. Off by default: sweeps that use saturated
	// points purely as curve terminators opt in.
	SaturationCutoff bool
	// Faults, when non-nil with a positive MTBF, injects per-cluster
	// processor failure/repair processes into the run (see package
	// faults). The fault draws come from their own named streams, so a
	// workload trace stays valid under any failure rate. A nil or
	// zero-rate spec leaves the run bit-identical to a fault-free one —
	// pinned by a guardrail test. Every built-in policy is fault-aware,
	// including the backfilling pair (GS-EASY, GS-CONS), which repair
	// their availability profiles on kills and capacity changes; Validate
	// still rejects the combination for any future policy that does not
	// implement policies.FaultAware.
	Faults *faults.Spec
	// Decisions, when non-nil, enables the decision-trace layer (package
	// dectrace): every dispatch, head miss, reservation and backfill
	// rejection is recorded with its unchosen alternatives, regret
	// aggregates land in Result, and — with an Observer attached —
	// decision records flow into the JSONL trace. Nil keeps the run
	// bit-identical to a build without the layer (the disabled path is
	// one pointer compare per hook), pinned by a guardrail test.
	Decisions *dectrace.Options
}

func (c *Config) applyDefaults() {
	if c.NoWarmup {
		c.WarmupJobs = 0
	} else if c.WarmupJobs == 0 {
		c.WarmupJobs = 2000
	}
	if c.MeasureJobs == 0 {
		c.MeasureJobs = 20000
	}
	if c.Faults != nil && !c.Faults.Enabled() {
		// A zero-rate spec is "no faults": normalizing it to nil here
		// guarantees the simulation takes the exact fault-free code
		// path, not merely an equivalent one.
		c.Faults = nil
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate checks the configuration and returns the policy it names.
func (c *Config) validate() (policies.Policy, error) {
	pol, err := c.system().build()
	if err != nil {
		return nil, err
	}
	if err := checkSpec(c.Spec, len(c.ClusterSizes)); err != nil {
		return nil, err
	}
	if !(c.ArrivalRate > 0) || math.IsInf(c.ArrivalRate, 0) {
		return nil, fmt.Errorf("core: arrival rate %g must be positive and finite", c.ArrivalRate)
	}
	if c.WarmupJobs < 0 || c.MeasureJobs <= 0 {
		return nil, fmt.Errorf("core: warmup %d / measure %d jobs", c.WarmupJobs, c.MeasureJobs)
	}
	if c.RequestType != workload.Unordered && c.Policy != "GS" && c.Policy != "SC" {
		return nil, fmt.Errorf("core: %s requests require the GS or SC policy, not %s",
			c.RequestType, c.Policy)
	}
	if c.TraceProvider != nil && c.RequestType != workload.Unordered {
		return nil, fmt.Errorf("core: workload traces support unordered requests, not %s", c.RequestType)
	}
	if c.Faults.Enabled() {
		if err := c.Faults.Validate(); err != nil {
			return nil, err
		}
		if _, ok := pol.(policies.FaultAware); !ok {
			return nil, fmt.Errorf("core: policy %s does not implement policies.FaultAware (abort handling, capacity-change repair of any retained scheduling state), so it cannot run with fault injection", c.Policy)
		}
	}
	return pol, nil
}

func (c *Config) system() system {
	return system{c.ClusterSizes, c.Policy, c.Fit, c.Lookahead, c.QueueWeights}
}

// system is the configuration every job source shares: the multicluster,
// the policy with its knobs, and the routing to local queues.
type system struct {
	clusters  []int
	policy    string
	fit       cluster.Fit
	lookahead int
	weights   []float64
}

// build validates the shared fields and constructs the policy. It is the
// one validation path of these fields for Run, RunBacklog and Replay.
func (sys system) build() (policies.Policy, error) {
	if len(sys.clusters) == 0 {
		return nil, fmt.Errorf("core: no clusters configured")
	}
	for i, n := range sys.clusters {
		if n <= 0 {
			return nil, fmt.Errorf("core: cluster %d has %d processors", i, n)
		}
	}
	if sys.weights != nil {
		if len(sys.weights) != len(sys.clusters) {
			return nil, fmt.Errorf("core: %d queue weights for %d clusters",
				len(sys.weights), len(sys.clusters))
		}
		var sum float64
		for _, w := range sys.weights {
			if !(w >= 0) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: queue weight %g must be non-negative and finite", w)
			}
			sum += w
		}
		if sum == 0 {
			return nil, fmt.Errorf("core: queue weights are all zero")
		}
	}
	if sys.lookahead < 0 {
		return nil, fmt.Errorf("core: lookahead %d must be >= 1 (or 0 for the default)", sys.lookahead)
	}
	return buildPolicy(sys.policy, len(sys.clusters), sys.fit, sys.lookahead)
}

// checkSpec validates a workload spec against the multicluster it splits
// over.
func checkSpec(spec workload.Spec, clusters int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Clusters != clusters {
		return fmt.Errorf("core: spec splits over %d clusters but system has %d", spec.Clusters, clusters)
	}
	return nil
}

// PolicyNames lists the policies Run, RunBacklog and Replay accept. SC,
// SC-EASY and SC-CONS need a single cluster.
const PolicyNames = "GS, GS-EASY, GS-CONS, GS-SPF, LS, LS-sorted, LP, SC, SC-EASY or SC-CONS"

// buildPolicy constructs a policy by its paper abbreviation. lookahead is
// the conservative-backfilling reservation bound (system.build rejects
// negative values); 0 selects the default.
func buildPolicy(name string, clusters int, fit cluster.Fit, lookahead int) (policies.Policy, error) {
	if lookahead == 0 {
		lookahead = policies.DefaultLookahead
	}
	switch name {
	case "GS":
		return policies.NewGS(fit), nil
	case "SC":
		if clusters != 1 {
			return nil, fmt.Errorf("core: SC needs a single cluster, got %d", clusters)
		}
		return policies.NewSC(), nil
	case "GS-EASY":
		return policies.NewEASY(fit), nil
	case "GS-CONS":
		return policies.NewConservative(fit, lookahead), nil
	case "GS-SPF":
		return policies.NewSPF(fit), nil
	case "SC-CONS":
		if clusters != 1 {
			return nil, fmt.Errorf("core: SC-CONS needs a single cluster, got %d", clusters)
		}
		return policies.NewSCConservative(lookahead), nil
	case "SC-EASY":
		if clusters != 1 {
			return nil, fmt.Errorf("core: SC-EASY needs a single cluster, got %d", clusters)
		}
		return policies.NewSCEASY(), nil
	case "LS":
		return policies.NewLS(clusters, fit), nil
	case "LS-sorted":
		// Ablation variant: queues re-enabled in fixed index order.
		return policies.NewLSSortedReenable(clusters, fit), nil
	case "LP":
		return policies.NewLP(clusters, fit), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want %s)", name, PolicyNames)
	}
}

// SizeClassBounds gives the inclusive upper bound of each job-size class
// used by Result.ResponseBySizeClass: 1-8, 9-16, 17-32, 33-64, 65-128+
// (the last class absorbs anything larger).
var SizeClassBounds = []int{8, 16, 32, 64, 128}

// SizeClass returns the class index of a total job size.
func SizeClass(size int) int {
	for i, b := range SizeClassBounds {
		if size <= b {
			return i
		}
	}
	return len(SizeClassBounds) - 1
}

// SizeClassLabel renders a class as "lo-hi".
func SizeClassLabel(i int) string {
	lo := 1
	if i > 0 {
		lo = SizeClassBounds[i-1] + 1
	}
	return fmt.Sprintf("%d-%d", lo, SizeClassBounds[i])
}

// Balanced returns uniform queue weights for n queues.
func Balanced(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Unbalanced returns the paper's unbalanced routing for n queues: the
// first queue receives twice the share of each of the others (40%/20% for
// four clusters).
func Unbalanced(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	w[0] = 2
	return w
}

// Result summarizes one run (or the merge of several replications).
type Result struct {
	Policy string
	// MeanResponse is the mean response time over measured jobs, in
	// seconds; the paper's main metric.
	MeanResponse float64
	// RespHalfWidth is the 95% confidence half-width of MeanResponse
	// (batch means within a run; across replications when merged).
	RespHalfWidth float64
	// MeanResponseLocal and MeanResponseGlobal break the mean down by
	// queue type; either may be NaN when the policy lacks that queue
	// type or no such job was measured.
	MeanResponseLocal  float64
	MeanResponseGlobal float64
	// MedianResponse and P95Response are streaming (P-squared) estimates
	// of the response-time distribution's 50th and 95th percentiles.
	MedianResponse float64
	P95Response    float64
	// MeanSlowdown is the mean bounded slowdown,
	// max(1, response / max(service, 10 s)), the standard job-scheduling
	// metric that caps the influence of very short jobs.
	MeanSlowdown float64
	// GrossUtilization is the measured time-average fraction of busy
	// processors (extended service times — includes wide-area
	// communication).
	GrossUtilization float64
	// NetUtilization counts only computation and fast local
	// communication (the non-extended service times).
	NetUtilization float64
	// OfferedGross is the gross load offered by the arrival process:
	// lambda * E[gross work] / capacity.
	OfferedGross float64
	// Jobs is the number of measured departures.
	Jobs int
	// FinalQueue is the number of jobs still queued when the run ended.
	FinalQueue int
	// Saturated reports the heuristic that the system could not keep up
	// with the offered load (the queue kept growing).
	Saturated bool
	// TruncatedJobs is the number of measured departures the saturation
	// cutoff skipped: MeasureJobs minus Jobs for a run the divergence
	// monitor halted early. Zero when Config.SaturationCutoff is off or
	// the monitor never fired; merged replications sum it. TruncatedJobs
	// > 0 implies Saturated.
	TruncatedJobs int
	// SimTime is the virtual length of the measurement window in seconds.
	SimTime float64
	// ResponseBySizeClass breaks the mean response time down by total
	// job size, over the classes of SizeClassBounds — the view behind
	// the paper's Section 3.2 argument that a few very large jobs
	// dominate FCFS performance. Entries with no measured jobs are NaN.
	ResponseBySizeClass []float64
	// MeanJobsInSystem is the time-average number of jobs present
	// (queued or running) over the measurement window. By Little's law
	// it equals throughput times mean response time in steady state —
	// an end-to-end consistency check the tests enforce.
	MeanJobsInSystem float64
	// Throughput is the measured departure rate in jobs per second.
	Throughput float64
	// PerClusterUtilization is the measured gross utilization of each
	// cluster over the window — the imbalance view behind the paper's
	// balanced/unbalanced comparison.
	PerClusterUtilization []float64
	// UtilizationImbalance is the spread max - min of the per-cluster
	// utilizations.
	UtilizationImbalance float64
	// Fault-injection outcomes (zero when Config.Faults is nil). The
	// counts cover the whole run, warmup included — failures do not stop
	// during warmup, so a windowed count would misstate the injected
	// process. Merged replications sum them.
	FailuresInjected int
	FailuresSkipped  int
	Repairs          int
	JobsKilled       int
	Resubmits        int
	// WorkLost is the processor-seconds of service discarded by aborts
	// over the whole run.
	WorkLost float64
	// WorkSaved is the processor-seconds of in-flight service that
	// checkpointing preserved across aborts; zero unless the fault spec
	// enables a checkpoint interval.
	WorkSaved float64
	// MeanAvailableFraction is the time-average fraction of processors
	// not down over the measurement window; 1 exactly when faults are
	// disabled.
	MeanAvailableFraction float64
	// Decision-trace aggregates (zero when Config.Decisions is nil; merged
	// replications sum them, except RegretMax which takes the maximum).
	// Decisions counts recorded decision records of every kind.
	Decisions int
	// RegretTotal is the summed per-job regret over dispatches: seconds a
	// job waited beyond the earliest start an unchosen alternative
	// placement offered it (see package dectrace).
	RegretTotal float64
	// RegretMax is the largest single-dispatch regret.
	RegretMax float64
	// RegretDecisions counts dispatches with nonzero regret.
	RegretDecisions int
}
