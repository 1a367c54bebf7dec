// Command mcsim runs one multicluster co-allocation simulation with
// explicit parameters and prints its metrics. It has one mode per job
// source: an open system with Poisson arrivals (the default), a constant
// backlog (-backlog), and the replay of a job log (-replay).
//
// Examples:
//
//	mcsim -policy LS -limit 16 -util 0.5
//	mcsim -policy SC -util 0.6 -jobs 50000
//	mcsim -policy LP -limit 32 -unbalanced -util 0.45
//	mcsim -policy GS -limit 24 -backlog    # maximal-utilization run
//	mcsim -policy LS -util 0.4 -mtbf 2000  # with processor failures
//	mcsim -replay -policy LS -limit 16     # replay the synthetic DAS log
//	mcsim -replay -policy GS -load 2 das.swf  # an SWF log, gaps compressed 2x
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"coalloc/internal/cliutil"
	"coalloc/internal/core"
	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// notReplay lists the flags a replay cannot use: the log fixes the jobs,
// their arrivals and the run length, and a replay has no failures, no
// replications and no decision records.
var notReplay = []string{"util", "warmup", "reps", "cap64", "backlog", "mtbf", "mttr",
	"retry-base", "retry-cap", "checkpoint-interval", "saturation-cutoff", "decisions"}

func main() {
	policy := flag.String("policy", "LS", "scheduling policy: "+core.PolicyNames)
	limit := flag.Int("limit", 16, "job-component-size limit (16, 24 or 32 in the paper)")
	util := flag.Float64("util", 0.5, "offered gross utilization")
	jobs := flag.Int("jobs", 30000, "measured jobs (with -replay: replay only the first N records; default all)")
	warmup := flag.Int("warmup", 3000, "warmup jobs (0 = no warmup, measure from time zero)")
	seed := flag.Uint64("seed", 1, "random seed (with -replay: the routing seed)")
	reps := flag.Int("reps", 1, "replications")
	cap64 := flag.Bool("cap64", false, "use the DAS-s-64 size distribution (total sizes cut at 64)")
	unbalanced := flag.Bool("unbalanced", false, "route 40%/20%/20%/20% of jobs to the local queues")
	ext := flag.Float64("ext", workload.DefaultExtensionFactor, "wide-area extension factor for multi-component jobs")
	fit := flag.String("fit", "WF", "placement rule: WF, FF or BF")
	lookahead := flag.Int("lookahead", 0, "conservative-backfilling reservation bound (0 = default 32; must be >= 1)")
	clusters := flag.String("clusters", "", "comma-separated cluster sizes (default 32,32,32,32; SC, SC-EASY and SC-CONS: 128)")
	backlog := flag.Bool("backlog", false, "run a constant-backlog (maximal utilization) simulation instead")
	replay := flag.Bool("replay", false, "replay a job log instead: the SWF file given as the argument, or the synthetic DAS log without one")
	load := flag.Float64("load", 1, "with -replay: load factor; >1 compresses interarrival gaps")
	schedule := flag.String("schedule", "", "with -replay: write the per-job schedule (Gantt CSV) to this file")
	mtbf := flag.Float64("mtbf", 0, "per-cluster mean time between processor failures in s (0 = no failures)")
	mttr := flag.Float64("mttr", 900, "mean time to repair a failed processor in s")
	retryBase := flag.Float64("retry-base", 10, "base resubmit backoff for killed jobs in s")
	retryCap := flag.Float64("retry-cap", 600, "resubmit backoff cap in s")
	ckptInterval := flag.Float64("checkpoint-interval", 0, "checkpoint interval for killed jobs in s (0 = no checkpointing; requires -mtbf)")
	satCutoff := flag.Bool("saturation-cutoff", false, "stop a saturated run at the first provable divergence checkpoint instead of the full horizon (non-saturated runs are unaffected)")
	metrics := flag.Bool("metrics", false, "print a metrics summary block after the results")
	decisions := flag.Bool("decisions", false, "record every scheduling decision with its unchosen alternatives and counterfactual regret (adds decision records to -trace and regret lines to the results)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *replay {
		for _, name := range notReplay {
			if set[name] {
				cliutil.Failf("mcsim", "-%s cannot be combined with -replay: a replay runs the log's own jobs once, fault-free, without decision records", name)
			}
		}
		if flag.NArg() > 1 {
			cliutil.Failf("mcsim", "-replay takes at most one log file, got %d arguments", flag.NArg())
		}
		if !(*load > 0) || math.IsInf(*load, 0) {
			cliutil.Failf("mcsim", "-load %g must be a positive finite number", *load)
		}
	} else {
		for _, name := range []string{"load", "schedule"} {
			if set[name] {
				cliutil.Failf("mcsim", "-%s only applies to -replay", name)
			}
		}
		if flag.NArg() > 0 {
			cliutil.Failf("mcsim", "unexpected argument %q: only -replay takes a log file", flag.Arg(0))
		}
	}

	// The arrival rate is derived from -util and the split from -limit
	// before any library validation runs, so reject bad values here.
	if !(*util > 0) || math.IsInf(*util, 0) {
		cliutil.Failf("mcsim", "-util %g must be a positive finite number", *util)
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"-limit", *limit}, {"-jobs", *jobs}, {"-reps", *reps}} {
		if f.value < 1 {
			cliutil.Failf("mcsim", "%s %d must be >= 1", f.name, f.value)
		}
	}

	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			fatalf("%v", err)
		}
	}

	clusterSizes := cliutil.Clusters("mcsim", *clusters, *policy)
	fitRule := cliutil.Fit("mcsim", *fit)
	var weights []float64
	if *unbalanced {
		weights = core.Unbalanced(len(clusterSizes))
	}

	conservative := *policy == "GS-CONS" || *policy == "SC-CONS"
	cliutil.CheckLookahead("mcsim", *lookahead, conservative,
		fmt.Sprintf("policy %s takes no reservation bound (want GS-CONS or SC-CONS)", *policy))
	cliutil.CheckDecisions("mcsim", *decisions, !*backlog,
		"constant-backlog runs measure capacity, not per-job scheduling")
	cliutil.CheckRetryWindow("mcsim", *retryBase, *retryCap)

	if *ckptInterval != 0 && *mtbf <= 0 {
		fatalf("-checkpoint-interval %g without -mtbf: checkpointing only matters when failures can kill jobs", *ckptInterval)
	}

	if *replay {
		componentLimit := *limit
		if cliutil.SingleCluster(*policy) {
			// Total requests: never split.
			componentLimit = clusterSizes[0]
		}
		recs := cliutil.LoadLog("mcsim", flag.Args())
		if set["jobs"] && *jobs < len(recs) {
			recs = recs[:*jobs]
		}
		cfg := core.ReplayConfig{
			ClusterSizes:    clusterSizes,
			Records:         recs,
			Policy:          *policy,
			Fit:             fitRule,
			Lookahead:       *lookahead,
			ComponentLimit:  componentLimit,
			ExtensionFactor: *ext,
			LoadFactor:      *load,
			QueueWeights:    weights,
			Seed:            *seed,
		}
		runReplay(cfg, *schedule, *metrics, *tracePath)
		return
	}

	der := workload.DeriveDefault()
	sizes := der.Sizes128
	if *cap64 {
		sizes = der.Sizes64
	}
	spec := workload.Spec{
		Sizes:           sizes,
		Service:         der.Service,
		ComponentLimit:  *limit,
		Clusters:        len(clusterSizes),
		ExtensionFactor: *ext,
	}
	if cliutil.SingleCluster(*policy) {
		spec.ComponentLimit = sizes.Max() // total requests: never split
	}

	if *backlog {
		if *mtbf > 0 {
			fatalf("-mtbf cannot be combined with -backlog (constant-backlog runs measure reliable-hardware capacity)")
		}
		// These outputs only exist for open-system runs; accepting the
		// flags here would silently drop them.
		if *metrics || *tracePath != "" {
			cliutil.Failf("mcsim", "-metrics and -trace cannot be combined with -backlog (constant-backlog runs have no observer)")
		}
		res, err := core.RunBacklog(core.BacklogConfig{
			ClusterSizes: clusterSizes,
			Spec:         spec,
			Policy:       *policy,
			Fit:          fitRule,
			QueueWeights: weights,
			Seed:         *seed,
			Lookahead:    *lookahead,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("policy              %s (constant backlog)\n", res.Policy)
		fmt.Printf("max gross util      %.4f\n", res.MaxGrossUtilization)
		fmt.Printf("max net util        %.4f\n", res.MaxNetUtilization)
		fmt.Printf("throughput          %.5f jobs/s\n", res.Throughput)
		fmt.Printf("jobs measured       %d\n", res.Jobs)
		return
	}

	var capacity int
	for _, s := range clusterSizes {
		capacity += s
	}
	cfg := core.Config{
		ClusterSizes: clusterSizes,
		Spec:         spec,
		Policy:       *policy,
		Fit:          fitRule,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(*util, capacity),
		QueueWeights: weights,
		WarmupJobs:   *warmup,
		NoWarmup:     *warmup == 0,
		MeasureJobs:  *jobs,
		Seed:         *seed,
		Lookahead:    *lookahead,

		SaturationCutoff: *satCutoff,
	}
	if *decisions {
		cfg.Decisions = &dectrace.Options{}
	}
	if *mtbf > 0 {
		cfg.Faults = &faults.Spec{
			MTBF:               *mtbf,
			MTTR:               *mttr,
			RetryBase:          *retryBase,
			RetryCap:           *retryCap,
			CheckpointInterval: *ckptInterval,
		}
	}
	observer, closeTrace := cliutil.Observer("mcsim", *metrics, *tracePath)
	cfg.Observer = observer
	res, err := core.RunReplications(cfg, *reps)
	if err != nil {
		fatalf("%v", err)
	}
	closeTrace()
	fmt.Printf("policy              %s\n", res.Policy)
	fmt.Printf("offered gross util  %.4f\n", res.OfferedGross)
	fmt.Printf("measured gross util %.4f\n", res.GrossUtilization)
	fmt.Printf("measured net util   %.4f\n", res.NetUtilization)
	fmt.Printf("mean response       %.1f s (95%% +- %.1f)\n", res.MeanResponse, res.RespHalfWidth)
	fmt.Printf("  local queues      %s\n", fmtNaN(res.MeanResponseLocal))
	fmt.Printf("  global queue      %s\n", fmtNaN(res.MeanResponseGlobal))
	fmt.Printf("median response     %s\n", fmtNaN(res.MedianResponse))
	fmt.Printf("p95 response        %s\n", fmtNaN(res.P95Response))
	fmt.Printf("mean slowdown       %.2f\n", res.MeanSlowdown)
	fmt.Printf("jobs in system      %.1f (Little: lambda*W = %.1f)\n",
		res.MeanJobsInSystem, res.Throughput*res.MeanResponse)
	fmt.Printf("per-cluster util    %s (imbalance %.3f)\n",
		formatUtils(res.PerClusterUtilization), res.UtilizationImbalance)
	fmt.Printf("resp by size class  %s\n", formatClasses(res.ResponseBySizeClass))
	fmt.Printf("jobs measured       %d\n", res.Jobs)
	fmt.Printf("queue at end        %d\n", res.FinalQueue)
	fmt.Printf("saturated           %v\n", res.Saturated)
	if res.TruncatedJobs > 0 {
		fmt.Printf("jobs truncated      %d (divergence cutoff stopped the run early)\n", res.TruncatedJobs)
	}
	if *decisions {
		fmt.Printf("decisions recorded  %d\n", res.Decisions)
		meanRegret := 0.0
		if res.Jobs > 0 {
			meanRegret = res.RegretTotal / float64(res.Jobs)
		}
		fmt.Printf("regret              %.1f s/job (%d dispatches with regret, max %.0f s)\n",
			meanRegret, res.RegretDecisions, res.RegretMax)
	}
	if *mtbf > 0 {
		fmt.Printf("failures injected   %d (skipped %d, repairs %d)\n",
			res.FailuresInjected, res.FailuresSkipped, res.Repairs)
		fmt.Printf("jobs killed         %d (resubmits %d)\n", res.JobsKilled, res.Resubmits)
		fmt.Printf("work lost           %.0f proc-s\n", res.WorkLost)
		if *ckptInterval > 0 {
			fmt.Printf("work saved          %.0f proc-s (checkpoint interval %.0f s)\n", res.WorkSaved, *ckptInterval)
		}
		fmt.Printf("mean avail fraction %.4f\n", res.MeanAvailableFraction)
	}
	if *metrics {
		printMetrics(observer)
	}
}

// runReplay replays cfg.Records and prints the replay's results, writing
// the Gantt CSV to schedule when it is set.
func runReplay(cfg core.ReplayConfig, schedule string, metrics bool, tracePath string) {
	var schedFile *os.File
	if schedule != "" {
		f, err := os.Create(schedule)
		if err != nil {
			fatalf("%v", err)
		}
		schedFile = f
		cfg.ScheduleWriter = f
	}
	observer, closeTrace := cliutil.Observer("mcsim", metrics, tracePath)
	cfg.Observer = observer
	res, err := core.Replay(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	// A Close error is a write error for buffered data; unchecked, a full
	// disk would silently truncate the schedule.
	if schedFile != nil {
		if err := schedFile.Close(); err != nil {
			fatalf("writing schedule: %v", err)
		}
	}
	closeTrace()

	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("jobs replayed     %d\n", res.Jobs)
	fmt.Printf("makespan          %.0f s (%.1f days)\n", res.Makespan, res.Makespan/86400)
	fmt.Printf("gross utilization %.4f\n", res.GrossUtilization)
	fmt.Printf("net utilization   %.4f\n", res.NetUtilization)
	fmt.Printf("mean response     %.1f s\n", res.MeanResponse)
	fmt.Printf("median response   %.1f s\n", res.MedianResponse)
	fmt.Printf("p95 response      %.1f s\n", res.P95Response)
	fmt.Printf("mean slowdown     %.2f\n", res.MeanSlowdown)
	fmt.Printf("max queue         %d\n", res.MaxQueue)
	if metrics {
		printMetrics(observer)
	}
}

// printMetrics appends the observer's summary block to the results.
func printMetrics(o *obs.Observer) {
	fmt.Println()
	fmt.Println("--- metrics ---")
	if err := o.WriteText(os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

func formatUtils(us []float64) string {
	parts := make([]string, len(us))
	for i, u := range us {
		parts[i] = fmt.Sprintf("%.3f", u)
	}
	return strings.Join(parts, " ")
}

func formatClasses(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s:%s", core.SizeClassLabel(i), fmtNaN(v))
	}
	return strings.Join(parts, "  ")
}

func fmtNaN(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.1f s", v)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
	os.Exit(1)
}
