// Package experiments reproduces every table and figure of the paper's
// evaluation: it sweeps arrival rates, runs the policies, and renders the
// same rows and curves the paper reports. Each experiment has a runner
// keyed by the paper's artifact name (table1..table3, fig1..fig7, ratio).
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dectrace"
	"coalloc/internal/dist"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/plot"
	"coalloc/internal/workload"
)

// MulticlusterSizes is the paper's system: 4 clusters of 32 processors.
var MulticlusterSizes = []int{32, 32, 32, 32}

// SingleClusterSizes is the reference system: one 128-processor cluster.
var SingleClusterSizes = []int{128}

// Limits are the paper's job-component-size limits.
var Limits = []int{16, 24, 32}

// Params controls the fidelity/cost of the experiment runs.
type Params struct {
	// Seed is the master seed; replications use Seed, Seed+1, ...
	Seed uint64
	// WarmupJobs and MeasureJobs per run (see core.Config).
	WarmupJobs, MeasureJobs int
	// Replications per point; the reported value is the mean.
	Replications int
	// Precision, when positive, replaces the fixed replication count
	// with the sequential stopping rule of core.RunUntilPrecision: each
	// point runs replications until the 95% half-width of the mean
	// response time drops below this relative precision (e.g. 0.05 for
	// +-5%). Replications then sets the minimum replication count (when
	// >= 2) and MaxReplications the cap. Run rejects a NaN or infinite
	// value.
	Precision float64
	// MaxReplications bounds the sequential procedure when Precision is
	// set (0 = the core default, 20).
	MaxReplications int
	// SaturationCutoff enables the early divergence monitor of
	// core.Config.SaturationCutoff for every sweep run: saturated points
	// stop as soon as their backlog growth provably exceeds the
	// saturation heuristic instead of running the full horizon. The
	// experiments use saturated points only as curve terminators, so the
	// figures keep their shape while their most expensive points get
	// cheaper; non-saturated points are bit-identical either way. Both
	// parameter presets enable it.
	SaturationCutoff bool
	// Utilizations is the gross-utilization sweep grid for the
	// response-time curves.
	Utilizations []float64
	// ResponseCap stops a sweep once the mean response time exceeds it
	// (the paper plots up to 10000 s).
	ResponseCap float64
	// BacklogWarmup and BacklogMeasure are the virtual durations of the
	// constant-backlog (maximal utilization) runs.
	BacklogWarmup, BacklogMeasure float64
	// DataDir, when non-empty, receives one CSV file per experiment.
	DataDir string
	// Progress, when non-nil, receives one line per sweep point run —
	// the long sweeps behind the figures otherwise run for minutes with
	// no output. A point that repeats another curve's, or that the Env
	// already ran, is not run again and prints no line.
	Progress io.Writer
	// Observer, when non-nil, receives the metrics (and optional trace)
	// of every simulation run. An Observer is single-threaded, so sweeps
	// and replications then execute serially, in deterministic order.
	Observer *obs.Observer
	// FaultMTTR is the mean time to repair a failed processor, in virtual
	// seconds, used by the fault-injection experiments. Zero means the
	// 900 s default.
	FaultMTTR float64
	// FaultMTBF is the per-cluster mean time between failures, in virtual
	// seconds, for the checkpoint experiment (the degradation experiment
	// sweeps its own MTBF grid). Zero means the 1000 s default.
	FaultMTBF float64
	// FaultRetryBase and FaultRetryCap override the resubmission backoff
	// of killed jobs (zeros mean the 10 s / 600 s defaults; see
	// faults.Spec).
	FaultRetryBase, FaultRetryCap float64
	// FaultCheckpointInterval enables checkpoint/restart in the
	// degradation experiment: kills then forfeit only the work since the
	// last checkpoint. Zero (the default) disables checkpointing there;
	// the checkpoint experiment sweeps its own interval grid.
	FaultCheckpointInterval float64
	// Lookahead bounds the number of queued jobs that receive
	// reservations per conservative-backfilling pass (as in
	// core.Config.Lookahead; 0 = the default 32, explicit values must be
	// >= 1).
	Lookahead int
	// Decisions, when non-nil, enables decision tracing (core
	// Config.Decisions) for every sweep run: regret aggregates land in
	// each point's Result. The regret experiment forces this on for its
	// own sweep; nil everywhere else keeps all runs bit-identical to a
	// build without the dectrace layer.
	Decisions *dectrace.Options
}

// DefaultParams returns publication-fidelity settings.
func DefaultParams() Params {
	return Params{
		Seed:             1,
		WarmupJobs:       3000,
		MeasureJobs:      30000,
		Replications:     3,
		Utilizations:     grid(0.10, 0.95, 0.05),
		ResponseCap:      10000,
		BacklogWarmup:    100_000,
		BacklogMeasure:   1_000_000,
		SaturationCutoff: true,
	}
}

// QuickParams returns reduced settings for tests and benchmarks.
func QuickParams() Params {
	return Params{
		Seed:             1,
		WarmupJobs:       300,
		MeasureJobs:      3000,
		Replications:     1,
		Utilizations:     grid(0.15, 0.85, 0.10),
		ResponseCap:      10000,
		BacklogWarmup:    20_000,
		BacklogMeasure:   100_000,
		SaturationCutoff: true,
	}
}

func grid(lo, hi, step float64) []float64 {
	var g []float64
	for u := lo; u <= hi+1e-9; u += step {
		g = append(g, math.Round(u*1000)/1000)
	}
	return g
}

// Env bundles the parameters with the workload distributions derived from
// the synthetic DAS trace; all experiments share one Env. The Env keeps
// the Result of every sweep point it ran, so a point that recurs in a
// later experiment is not run again (see pointKey).
type Env struct {
	Params
	Derived workload.Derived

	mu   sync.Mutex               // guards done
	done map[pointKey]core.Result // every finished keyed point
}

// NewEnv derives the canonical workload and returns a ready environment.
func NewEnv(p Params) *Env {
	return &Env{Params: p, Derived: workload.DeriveDefault()}
}

// MultiSpec returns the multicluster workload for a component-size limit,
// with the given total-size distribution (Sizes128 or Sizes64).
func (e *Env) MultiSpec(limit int, sizes *dist.EmpiricalInt) workload.Spec {
	return workload.Spec{
		Sizes:           sizes,
		Service:         e.Derived.Service,
		ComponentLimit:  limit,
		Clusters:        len(MulticlusterSizes),
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
}

// SCSpec returns the single-cluster reference workload (total requests, no
// splitting, no extension).
func (e *Env) SCSpec(sizes *dist.EmpiricalInt) workload.Spec {
	return workload.Spec{
		Sizes:           sizes,
		Service:         e.Derived.Service,
		ComponentLimit:  sizes.Max(),
		Clusters:        1,
		ExtensionFactor: workload.DefaultExtensionFactor, // never applied: 1 component
	}
}

// CurveSpec names one response-time-versus-utilization curve.
type CurveSpec struct {
	Label        string
	Policy       string
	ClusterSizes []int
	Spec         workload.Spec
	QueueWeights []float64 // nil = balanced
	Fit          cluster.Fit
}

// curveJobs builds the sweep jobs of a set of curve specs over the
// utilization grid.
func (e *Env) curveJobs(specs []CurveSpec) []curveJob {
	jobs := make([]curveJob, len(specs))
	for i := range specs {
		cs := specs[i]
		jobs[i] = curveJob{
			label: cs.Label,
			grid:  e.Utilizations,
			config: func(u float64) core.Config {
				return e.pointConfig(cs, u)
			},
		}
	}
	return jobs
}

// CurveSet sweeps the utilization grid for several configurations as one
// scheduling unit (see sweepSet) and returns each curve's raw results
// in grid order, ending at the curve's first saturated point.
func (e *Env) CurveSet(specs []CurveSpec) ([][]core.Result, error) {
	return e.sweepSet(e.curveJobs(specs))
}

// Curves is CurveSet rendered into the measured (gross utilization, mean
// response time) series of each curve. Batching a figure's curves into
// one call lets the scheduler interleave their points; the series are
// identical to sweeping each curve alone.
func (e *Env) Curves(specs []CurveSpec) ([]plot.Series, error) {
	sets, err := e.CurveSet(specs)
	if err != nil {
		return nil, err
	}
	out := make([]plot.Series, len(specs))
	for i := range specs {
		out[i] = e.series(specs[i].Label, sets[i])
	}
	return out, nil
}

// series renders one curve's results, ending at the first saturated point
// or once the response cap is exceeded, as in the paper's plots.
func (e *Env) series(name string, results []core.Result) plot.Series {
	s := plot.Series{Name: name}
	for _, res := range results {
		s.Add(res.GrossUtilization, res.MeanResponse)
		if res.Saturated {
			// The terminator's measured values are horizon-dependent
			// (doubly so under the saturation cutoff); flag it so
			// summaries exclude it from stable-point ranks.
			s.Saturated = true
			break
		}
		if res.MeanResponse > e.ResponseCap {
			break
		}
	}
	return s
}

// netSeries renders one curve's results into the gross- and
// net-utilization series of Fig. 7.
func (e *Env) netSeries(label string, results []core.Result) (gross, net plot.Series) {
	gross = plot.Series{Name: label + " gross"}
	net = plot.Series{Name: label + " net"}
	for _, res := range results {
		gross.Add(res.GrossUtilization, res.MeanResponse)
		net.Add(res.NetUtilization, res.MeanResponse)
		if res.Saturated {
			gross.Saturated = true
			net.Saturated = true
			break
		}
		if res.MeanResponse > e.ResponseCap {
			break
		}
	}
	return gross, net
}

// Point runs one configuration at one offered gross utilization, or
// returns its Result from an earlier run in this Env.
func (e *Env) Point(cs CurveSpec, util float64) (core.Result, error) {
	return e.run(e.pointConfig(cs, util))
}

// runPoint runs one point's replications: a fixed count by default, or
// the sequential stopping rule when Params.Precision is set.
func (e *Env) runPoint(cfg core.Config) (core.Result, error) {
	if e.Precision > 0 {
		min := 0 // 0 = the core default (3)
		if e.Replications >= 2 {
			min = e.Replications
		}
		pr, err := core.RunUntilPrecision(core.PrecisionConfig{
			Run:               cfg,
			RelativePrecision: e.Precision,
			MinReplications:   min,
			MaxReplications:   e.MaxReplications,
		})
		return pr.Result, err
	}
	return core.RunReplications(cfg, e.Replications)
}

// pointConfig builds the run configuration of one sweep point. Every
// policy run at the point draws the same jobs from its named streams
// (common random numbers), since they share the seed and arrival rate.
// No experiment reads the statistics only the commands report, so every
// point skips them (core.Config.SweepStats).
func (e *Env) pointConfig(cs CurveSpec, util float64) core.Config {
	var capacity int
	for _, s := range cs.ClusterSizes {
		capacity += s
	}
	return core.Config{
		ClusterSizes:     cs.ClusterSizes,
		Spec:             cs.Spec,
		Policy:           cs.Policy,
		Fit:              cs.Fit,
		ArrivalRate:      cs.Spec.ArrivalRateForGrossUtilization(util, capacity),
		QueueWeights:     cs.QueueWeights,
		WarmupJobs:       e.WarmupJobs,
		MeasureJobs:      e.MeasureJobs,
		Seed:             e.Seed,
		Observer:         e.Observer,
		Lookahead:        e.Lookahead,
		SaturationCutoff: e.SaturationCutoff,
		Decisions:        e.Decisions,
		SweepStats:       true,
	}
}

// faultConfig is pointConfig with fault injection (nil fs = fault-free).
// Every rate at this point draws the same jobs from the workload streams,
// and failure draws come from their own streams, so the whole degradation
// grid runs on a common job sequence and differences are purely the
// failures.
func (e *Env) faultConfig(cs CurveSpec, util float64, fs *faults.Spec) core.Config {
	cfg := e.pointConfig(cs, util)
	cfg.Faults = fs
	return cfg
}

// SaveCSV writes the series of an experiment to DataDir (when configured).
func (e *Env) SaveCSV(name string, series []plot.Series) error {
	if e.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.DataDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.DataDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := plot.WriteCSV(f, series); err != nil {
		f.Close() //detlint:ignore closecheck error path: the write failure being returned supersedes any close error
		return err
	}
	// The Close error is the write error for buffered file data: dropping
	// it can silently truncate the CSV (full disk, quota).
	return f.Close()
}

// standardCurves returns the four policy curves of Fig. 3 for one
// component-size limit and queue balance.
func (e *Env) standardCurves(limit int, weights []float64) []CurveSpec {
	spec := e.MultiSpec(limit, e.Derived.Sizes128)
	return []CurveSpec{
		{Label: "SC", Policy: "SC", ClusterSizes: SingleClusterSizes, Spec: e.SCSpec(e.Derived.Sizes128)},
		{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec, QueueWeights: weights},
		{Label: "LP", Policy: "LP", ClusterSizes: MulticlusterSizes, Spec: spec, QueueWeights: weights},
	}
}

// balanceName labels the two routing cases.
func balanceName(weights []float64) string {
	if weights == nil {
		return "balanced"
	}
	return "unbalanced"
}

// fmtF renders a float with 3 decimals, or "-" for NaN.
func fmtF(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtResp renders a response time in seconds, or "-" for NaN.
func fmtResp(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}
