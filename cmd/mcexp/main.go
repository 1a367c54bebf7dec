// Command mcexp reproduces the paper's experiments by id.
//
// Usage:
//
//	mcexp [flags] <experiment>...
//	mcexp [flags] all
//	mcexp list
//
// Experiments: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7
// ratio workload, plus the ablations and the fault-injection extension
// (`mcexp list` prints them all). Use -quick for reduced run lengths,
// -data DIR to also write CSV files with the plotted points.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"coalloc/internal/cliutil"
	"coalloc/internal/dectrace"
	"coalloc/internal/experiments"
	"coalloc/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced run lengths (tests, smoke checks)")
	seed := flag.Uint64("seed", 1, "master random seed")
	reps := flag.Int("reps", 0, "replications per point (0 = preset default); with -precision this is the minimum replication count")
	precision := flag.Float64("precision", 0, "run replications per point until the 95% half-width of the mean response falls below this relative precision, e.g. 0.05 (0 = fixed replication count)")
	maxReps := flag.Int("max-reps", 0, "replication cap for -precision (0 = default 20)")
	satCutoff := flag.Bool("saturation-cutoff", true, "stop saturated sweep points at the first provable divergence checkpoint instead of the full horizon (non-saturated points are bit-identical either way)")
	measure := flag.Int("jobs", 0, "measured jobs per run (0 = preset default)")
	dataDir := flag.String("data", "", "directory for CSV output (optional)")
	progress := flag.Bool("progress", false, "print one line per sweep point run (stderr)")
	metrics := flag.Bool("metrics", false, "print an aggregate metrics summary after the experiments")
	mttr := flag.Float64("mttr", 0, "mean processor repair time in s for the fault experiments (0 = 900 s default)")
	mtbf := flag.Float64("mtbf", 0, "per-cluster mean time between failures in s for the checkpoint experiment (0 = 1000 s default; the faults experiment sweeps its own grid)")
	retryBase := flag.Float64("retry-base", 0, "base resubmit backoff for killed jobs in s (0 = 10 s default)")
	retryCap := flag.Float64("retry-cap", 0, "resubmit backoff cap in s (0 = 600 s default)")
	ckptInterval := flag.Float64("checkpoint-interval", 0, "checkpoint interval in s for the faults experiment (0 = no checkpointing; the checkpoint experiment sweeps its own grid)")
	lookahead := flag.Int("lookahead", 0, "conservative-backfilling reservation bound (0 = default 32; must be >= 1)")
	decisions := flag.Bool("decisions", false, "record scheduling decisions with counterfactual regret in every simulation run (regret aggregates land in the results; the regret experiment enables this by itself)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mcexp [flags] <experiment>...|all|list\n\nexperiments:\n")
		for _, n := range experiments.Names() {
			fmt.Fprintf(os.Stderr, "  %-9s %s\n", n, experiments.Describe(n))
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "list" {
		for _, n := range experiments.Names() {
			fmt.Printf("%-9s %s\n", n, experiments.Describe(n))
		}
		return
	}

	params := experiments.DefaultParams()
	if *quick {
		params = experiments.QuickParams()
	}
	params.Seed = *seed
	for _, f := range []struct {
		name  string
		value int
	}{{"-reps", *reps}, {"-jobs", *measure}} {
		if f.value < 0 {
			cliutil.Failf("mcexp", "%s %d must be non-negative (0 = preset default)", f.name, f.value)
		}
	}
	if *reps > 0 {
		params.Replications = *reps
	}
	if *measure > 0 {
		params.MeasureJobs = *measure
	}
	params.DataDir = *dataDir
	cliutil.CheckFaultFlags("mcexp", *mtbf, *mttr, *ckptInterval)
	cliutil.CheckRetryWindow("mcexp", *retryBase, *retryCap)
	params.FaultMTTR = *mttr
	params.FaultMTBF = *mtbf
	params.FaultRetryBase = *retryBase
	params.FaultRetryCap = *retryCap
	params.FaultCheckpointInterval = *ckptInterval

	// -lookahead and -decisions only act on experiments that run the
	// matching simulations; accepted-but-inert flags would read as a
	// measurement of a configuration that never ran. An unknown
	// experiment name disables the applicability checks — the run loop
	// rejects the name itself with the full list.
	anyCons, anySims, anyUnknown := false, false, false
	for _, name := range flag.Args() {
		switch {
		case name == "all":
			anyCons, anySims = true, true
		case !experiments.Known(name):
			anyUnknown = true
		default:
			anyCons = anyCons || experiments.UsesConservative(name)
			anySims = anySims || experiments.UsesSimulations(name)
		}
	}
	cliutil.CheckLookahead("mcexp", *lookahead, anyCons || anyUnknown,
		"none of the requested experiments run a conservative-backfilling policy (backfill, faults, checkpoint do)")
	cliutil.CheckDecisions("mcexp", *decisions, anySims || anyUnknown,
		"none of the requested experiments run simulations")
	params.Lookahead = *lookahead
	if *decisions {
		params.Decisions = &dectrace.Options{}
	}
	if !(*precision >= 0) || math.IsInf(*precision, 1) {
		cliutil.Failf("mcexp", "-precision %g must be a non-negative finite number (0 = fixed replication count)", *precision)
	}
	if *maxReps < 0 {
		cliutil.Failf("mcexp", "-max-reps %d must be non-negative", *maxReps)
	}
	if *maxReps > 0 && *precision == 0 {
		cliutil.Failf("mcexp", "-max-reps only applies with -precision")
	}
	params.Precision = *precision
	params.MaxReplications = *maxReps
	params.SaturationCutoff = *satCutoff
	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mcexp: %v\n", err)
			os.Exit(1)
		}
	}
	if *progress {
		params.Progress = os.Stderr
	}
	var observer *obs.Observer
	if *metrics {
		// Note: attaching an Observer serializes the sweeps (it is
		// single-threaded), trading wall-clock for deterministic counts.
		observer = obs.New(nil)
		params.Observer = observer
	}
	env := experiments.NewEnv(params)

	for _, name := range flag.Args() {
		var out string
		var err error
		if name == "all" {
			out, err = experiments.All(env)
		} else {
			out, err = experiments.Run(name, env)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcexp: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if *metrics {
		fmt.Println("--- metrics ---")
		if err := observer.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mcexp: %v\n", err)
			os.Exit(1)
		}
	}
	// Close errors are write errors for buffered trace data; unchecked, a
	// full disk would silently truncate the trace. (Nil-safe: without
	// -metrics there is no observer.)
	if err := observer.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mcexp: writing trace: %v\n", err)
		os.Exit(1)
	}
}
