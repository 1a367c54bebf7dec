// Command mcmodel generates job traces from the parametric
// Feitelson-style workload model (internal/wmodel) and writes them in
// Standard Workload Format, ready for mcreplay or external tools.
//
// Usage:
//
//	mcmodel gen [-jobs N] [-seed S] [-procs P] [-serial F] [-o file.swf]
//	mcmodel stats [-jobs N] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"coalloc/internal/cliutil"
	"coalloc/internal/dastrace"
	"coalloc/internal/wmodel"
)

func main() {
	if len(os.Args) < 2 || (os.Args[1] != "gen" && os.Args[1] != "stats") {
		usage()
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	jobs := fs.Int("jobs", 20000, "number of jobs")
	seed := fs.Uint64("seed", 1, "random seed")
	procs := fs.Int("procs", 0, "machine size (0 = default 128)")
	serial := fs.Float64("serial", -1, "serial-job fraction (negative = default)")
	rate := fs.Float64("rate", 0, "mean arrival rate in jobs/s (0 = default)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(os.Args[2:])
	if *jobs < 1 {
		cliutil.Failf("mcmodel", "-jobs %d must be >= 1", *jobs)
	}

	cfg := wmodel.Default()
	if *procs > 0 {
		cfg.MaxProcs = *procs
	}
	if *serial >= 0 {
		cfg.SerialProb = *serial
	}
	if *rate > 0 {
		cfg.ArrivalRate = *rate
	}
	model, err := wmodel.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	recs := model.Generate(*jobs, *seed)

	switch os.Args[1] {
	case "gen":
		w := os.Stdout
		var f *os.File
		if *out != "" {
			var err error
			f, err = os.Create(*out)
			if err != nil {
				fatalf("%v", err)
			}
			w = f
		}
		header := fmt.Sprintf("Feitelson-style model trace\nJobs: %d\nSeed: %d\nMaxProcs: %d",
			*jobs, *seed, cfg.MaxProcs)
		if err := dastrace.WriteSWF(w, recs, header); err != nil {
			fatalf("%v", err)
		}
		// Close errors surface the write failures (full disk, quota) that
		// only materialize when buffered data is flushed.
		if f != nil {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}

	case "stats":
		ls := dastrace.Analyze(recs)
		fmt.Printf("jobs                %d\n", ls.Jobs)
		fmt.Printf("distinct sizes      %d in [%d, %d]\n", ls.DistinctSizes, ls.MinSize, ls.MaxSize)
		fmt.Printf("mean size           %.2f (CV %.2f)\n", ls.MeanSize, ls.SizeCV)
		fmt.Printf("power-of-two mass   %.3f\n", ls.PowerOfTwoMass)
		fmt.Printf("mean service        %.1f s (CV %.2f, max %.1f)\n",
			ls.MeanService, ls.ServiceCV, ls.MaxService)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mcmodel gen|stats [flags]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcmodel: "+format+"\n", args...)
	os.Exit(1)
}
