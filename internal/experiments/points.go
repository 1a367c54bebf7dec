package experiments

import (
	"fmt"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dist"
	"coalloc/internal/faults"
	"coalloc/internal/workload"
)

// Many sweep points are the same run under another label: SC has no
// component-size limit and GS ignores queue weights, so 8 of Fig. 3's 24
// curves repeat another, and Figs. 4-7 and most ablations re-run Fig. 3
// points. A point's Result depends only on its run configuration and the
// Env's replication settings (TestSweepMatchesPerPolicyRuns), so each
// distinct point runs once per Env: runSet collapses equal points into one
// task before dispatch, and the Env keeps every finished point's Result
// for the experiments that follow (DESIGN.md section 16).

// pointKey identifies one sweep point's run: every core.Config field but
// the bypassed Observer and Decisions, plus the Env's replication settings.
// The Spec's distributions are keyed by identity, which is sound because
// the Env owns them and never changes them; everything else by value.
type pointKey struct {
	policy       string
	clusterSizes string
	sizes        *dist.EmpiricalInt
	service      *dist.EmpiricalCont
	limit        int
	specClusters int
	extension    float64
	requestType  workload.RequestType
	fit          cluster.Fit
	lookahead    int
	arrivalRate  float64
	queueWeights string
	warmupJobs   int
	noWarmup     bool
	measureJobs  int
	seed         uint64
	cutoff       bool
	sweepStats   bool
	hasFaults    bool
	faults       faults.Spec
	replications int
	precision    float64
	maxReps      int
}

// pointKey returns cfg's key, or false when the point must not be shared:
// an Observer or decision tracing is attached (the run's side output is
// the point of running it), or the Spec's distributions are not the Env's.
func (e *Env) pointKey(cfg core.Config) (pointKey, bool) {
	if cfg.Observer != nil || cfg.Decisions != nil {
		return pointKey{}, false
	}
	sizes := cfg.Spec.Sizes
	if (sizes != e.Derived.Sizes128 && sizes != e.Derived.Sizes64) ||
		cfg.Spec.Service != dist.Continuous(e.Derived.Service) {
		return pointKey{}, false
	}
	k := pointKey{
		policy:       cfg.Policy,
		clusterSizes: fmt.Sprint(cfg.ClusterSizes),
		sizes:        sizes,
		service:      e.Derived.Service,
		limit:        cfg.Spec.ComponentLimit,
		specClusters: cfg.Spec.Clusters,
		extension:    cfg.Spec.ExtensionFactor,
		requestType:  cfg.RequestType,
		fit:          cfg.Fit,
		lookahead:    cfg.Lookahead,
		arrivalRate:  cfg.ArrivalRate,
		warmupJobs:   cfg.WarmupJobs,
		noWarmup:     cfg.NoWarmup,
		measureJobs:  cfg.MeasureJobs,
		seed:         cfg.Seed,
		cutoff:       cfg.SaturationCutoff,
		sweepStats:   cfg.SweepStats,
		replications: e.Replications,
		precision:    e.Precision,
		maxReps:      e.MaxReplications,
	}
	if cfg.QueueWeights != nil {
		// %v prints every float64 in its shortest round-trip form, so
		// distinct weights render distinctly; the prefix keeps an empty
		// slice apart from nil (balanced).
		k.queueWeights = fmt.Sprint("w", cfg.QueueWeights)
	}
	if cfg.Faults != nil {
		k.hasFaults, k.faults = true, *cfg.Faults
	}
	return k, true
}

// recall returns the finished Result of a point, if this Env ran it.
func (e *Env) recall(k pointKey) (core.Result, bool) {
	e.mu.Lock()
	res, ok := e.done[k]
	e.mu.Unlock()
	if !ok {
		return core.Result{}, false
	}
	return cloneResult(res), true
}

// remember keeps a finished point's Result for later sweeps of this Env.
func (e *Env) remember(k pointKey, res core.Result) {
	e.mu.Lock()
	if e.done == nil {
		e.done = make(map[pointKey]core.Result)
	}
	e.done[k] = cloneResult(res)
	e.mu.Unlock()
}

// cloneResult copies res's slices: a Result handed to more than one
// caller, or kept by the Env, must not share them.
func cloneResult(res core.Result) core.Result {
	res.ResponseBySizeClass = append([]float64(nil), res.ResponseBySizeClass...)
	res.PerClusterUtilization = append([]float64(nil), res.PerClusterUtilization...)
	return res
}

// run runs one point, or returns its Result from an earlier run in this
// Env.
func (e *Env) run(cfg core.Config) (core.Result, error) {
	k, keyed := e.pointKey(cfg)
	if keyed {
		if res, ok := e.recall(k); ok {
			return res, nil
		}
	}
	res, err := e.runPoint(cfg)
	if keyed && err == nil {
		e.remember(k, res)
	}
	return res, err
}
