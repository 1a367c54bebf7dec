// Command mcreplay replays a job trace (Standard Workload Format, or the
// built-in synthetic DAS log) through a scheduling policy and reports the
// resulting response times and utilization.
//
// Examples:
//
//	mcreplay -policy LS -limit 16                 # synthetic DAS log
//	mcreplay -policy GS -limit 32 -load 2 das.swf # compress gaps 2x
//	mcreplay -policy SC -clusters 128 das.swf     # single-cluster replay
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"coalloc/internal/cliutil"
	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

func main() {
	policy := flag.String("policy", "LS", "scheduling policy: "+core.PolicyNames)
	limit := flag.Int("limit", 16, "job-component-size limit")
	load := flag.Float64("load", 1, "load factor: >1 compresses interarrival gaps")
	ext := flag.Float64("ext", workload.DefaultExtensionFactor, "extension factor for multi-component jobs")
	seed := flag.Uint64("seed", 1, "routing seed")
	unbalanced := flag.Bool("unbalanced", false, "unbalanced local-queue routing")
	clusters := flag.String("clusters", "", "comma-separated cluster sizes (default 32,32,32,32; SC, SC-EASY and SC-CONS: 128)")
	jobs := flag.Int("jobs", 0, "replay only the first N jobs (0 = all)")
	fit := flag.String("fit", "WF", "placement rule: WF, FF or BF")
	schedule := flag.String("schedule", "", "write the per-job schedule (Gantt CSV) to this file")
	metrics := flag.Bool("metrics", false, "print a metrics summary block after the results")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if *jobs < 0 {
		cliutil.Failf("mcreplay", "-jobs %d must be >= 0 (0 = all)", *jobs)
	}
	if !(*load > 0) || math.IsInf(*load, 0) {
		cliutil.Failf("mcreplay", "-load %g must be a positive finite number", *load)
	}

	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			fatalf("%v", err)
		}
	}

	var recs []dastrace.Record
	if flag.NArg() == 0 {
		recs = dastrace.Default()
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		recs, err = dastrace.ReadSWF(f)
		f.Close() //detlint:ignore closecheck read-only handle; ReadSWF's error is the one that matters
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *jobs > 0 && *jobs < len(recs) {
		recs = recs[:*jobs]
	}

	clusterSizes := cliutil.Clusters("mcreplay", *clusters, *policy)
	componentLimit := *limit
	if cliutil.SingleCluster(*policy) {
		// Total requests: never split.
		componentLimit = clusterSizes[0]
	}

	var weights []float64
	if *unbalanced {
		weights = core.Unbalanced(len(clusterSizes))
	}

	cfg := core.ReplayConfig{
		ClusterSizes:    clusterSizes,
		Records:         recs,
		Policy:          *policy,
		Fit:             cliutil.Fit("mcreplay", *fit),
		ComponentLimit:  componentLimit,
		ExtensionFactor: *ext,
		LoadFactor:      *load,
		QueueWeights:    weights,
		Seed:            *seed,
	}
	var schedFile *os.File
	if *schedule != "" {
		f, err := os.Create(*schedule)
		if err != nil {
			fatalf("%v", err)
		}
		schedFile = f
		cfg.ScheduleWriter = f
	}
	observer, closeTrace := cliutil.Observer("mcreplay", *metrics, *tracePath)
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
	if *metrics {
		fmt.Println()
		fmt.Println("--- metrics ---")
		if err := observer.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcreplay: "+format+"\n", args...)
	os.Exit(1)
}
