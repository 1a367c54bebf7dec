// Command mctrace generates and inspects job logs: the synthetic DAS log
// and traces of the parametric Feitelson-style workload model
// (internal/wmodel), both in Standard Workload Format.
//
// Usage:
//
//	mctrace gen [-model das|feitelson] [-jobs N] [-seed S] [-o file.swf]
//	            [-procs P] [-serial F] [-rate R]    write a log (SWF); the last three need -model feitelson
//	mctrace stats [file.swf]                        summarize a log (default: synthetic)
//	mctrace density [file.swf]                      per-size job counts (Fig. 1 data)
//	mctrace filter [-maxsize N] [-maxservice S] [-from T -to T] [-o out.swf] [file.swf]
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
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		fs := flag.NewFlagSet("gen", flag.ExitOnError)
		model := fs.String("model", "das", "workload model: das (the synthetic DAS log) or feitelson (the parametric model)")
		jobs := fs.Int("jobs", 0, "number of jobs (0 = the model's default: 39356 for das, 20000 for feitelson)")
		seed := fs.Uint64("seed", 0, "random seed (0 = the model's default)")
		procs := fs.Int("procs", 0, "feitelson: machine size (0 = default 128)")
		serial := fs.Float64("serial", -1, "feitelson: serial-job fraction (negative = default)")
		rate := fs.Float64("rate", 0, "feitelson: mean arrival rate in jobs/s (0 = default)")
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		if *jobs < 0 {
			cliutil.Failf("mctrace", "-jobs %d must be >= 0 (0 = default)", *jobs)
		}
		switch *model {
		case "das":
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "procs" || f.Name == "serial" || f.Name == "rate" {
					cliutil.Failf("mctrace", "-%s only applies to -model feitelson", f.Name)
				}
			})
			cfg := dastrace.DefaultConfig()
			if *jobs > 0 {
				cfg.NumJobs = *jobs
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			writeLog(*out, dastrace.Generate(cfg),
				fmt.Sprintf("Synthetic DAS1-like log\nJobs: %d\nSeed: %d\nMaxProcs: 128", cfg.NumJobs, cfg.Seed))
		case "feitelson":
			n, s := 20000, uint64(1)
			if *jobs > 0 {
				n = *jobs
			}
			if *seed != 0 {
				s = *seed
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
			m, err := wmodel.New(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			writeLog(*out, m.Generate(n, s),
				fmt.Sprintf("Feitelson-style model trace\nJobs: %d\nSeed: %d\nMaxProcs: %d", n, s, cfg.MaxProcs))
		default:
			cliutil.Failf("mctrace", "unknown -model %q (want das or feitelson)", *model)
		}

	case "stats":
		recs := cliutil.LoadLog("mctrace", os.Args[2:])
		ls := dastrace.Analyze(recs)
		fmt.Printf("jobs                %d\n", ls.Jobs)
		fmt.Printf("distinct sizes      %d in [%d, %d]\n", ls.DistinctSizes, ls.MinSize, ls.MaxSize)
		fmt.Printf("mean size           %.2f (CV %.2f)\n", ls.MeanSize, ls.SizeCV)
		fmt.Printf("mean service        %.1f s (CV %.2f, max %.1f)\n", ls.MeanService, ls.ServiceCV, ls.MaxService)
		fmt.Printf("below 900 s         %.1f%%\n", 100*ls.FracServiceUnderKill)
		fmt.Println()
		fmt.Print(dastrace.FormatTable1(ls))

	case "density":
		recs := cliutil.LoadLog("mctrace", os.Args[2:])
		sizes, counts := dastrace.SizeDensity(recs)
		fmt.Println("size jobs")
		for i, s := range sizes {
			fmt.Printf("%4d %d\n", s, counts[i])
		}

	case "filter":
		fs := flag.NewFlagSet("filter", flag.ExitOnError)
		maxSize := fs.Int("maxsize", 0, "drop jobs larger than this (0 = keep all)")
		maxService := fs.Float64("maxservice", 0, "drop jobs with longer service (0 = keep all)")
		from := fs.Float64("from", -1, "window start in seconds (-1 = no window)")
		to := fs.Float64("to", -1, "window end in seconds")
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		window := *from >= 0 || *to >= 0
		if window && (*from < 0 || *to <= *from) {
			cliutil.Failf("mctrace", "-from %g -to %g: set both, with 0 <= -from < -to", *from, *to)
		}
		recs := cliutil.LoadLog("mctrace", fs.Args())
		if *maxSize > 0 {
			recs = dastrace.FilterMaxSize(recs, *maxSize)
		}
		if *maxService > 0 {
			recs = dastrace.FilterMaxService(recs, *maxService)
		}
		if window {
			recs = dastrace.FilterWindow(recs, *from, *to)
		}
		recs = dastrace.Renumber(recs)
		writeLog(*out, recs, fmt.Sprintf("Filtered log\nJobs: %d", len(recs)))

	default:
		usage()
	}
}

// writeLog writes recs as SWF with the given header, to the file named
// out or to stdout when out is empty.
func writeLog(out string, recs []dastrace.Record, header string) {
	w := os.Stdout
	if out != "" {
		var err error
		if w, err = os.Create(out); err != nil {
			fatalf("%v", err)
		}
	}
	if err := dastrace.WriteSWF(w, recs, header); err != nil {
		fatalf("%v", err)
	}
	// Close errors surface the write failures (full disk, quota) that
	// only materialize when buffered data is flushed.
	if out != "" {
		if err := w.Close(); err != nil {
			fatalf("%v", err)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mctrace gen|stats|density|filter [args]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mctrace: "+format+"\n", args...)
	os.Exit(1)
}
