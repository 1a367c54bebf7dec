// Command mctrace generates and inspects the synthetic DAS job log.
//
// Usage:
//
//	mctrace gen [-jobs N] [-seed S] [-o file.swf]   write a synthetic log (SWF)
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
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		fs := flag.NewFlagSet("gen", flag.ExitOnError)
		jobs := fs.Int("jobs", 0, "number of jobs (0 = default 39356)")
		seed := fs.Uint64("seed", 0, "random seed (0 = default)")
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		if *jobs < 0 {
			cliutil.Failf("mctrace", "-jobs %d must be >= 0 (0 = default)", *jobs)
		}
		cfg := dastrace.DefaultConfig()
		if *jobs > 0 {
			cfg.NumJobs = *jobs
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		recs := dastrace.Generate(cfg)
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
		header := fmt.Sprintf("Synthetic DAS1-like log\nJobs: %d\nSeed: %d\nMaxProcs: 128", cfg.NumJobs, cfg.Seed)
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
		recs := loadLog(os.Args[2:])
		ls := dastrace.Analyze(recs)
		fmt.Printf("jobs                %d\n", ls.Jobs)
		fmt.Printf("distinct sizes      %d in [%d, %d]\n", ls.DistinctSizes, ls.MinSize, ls.MaxSize)
		fmt.Printf("mean size           %.2f (CV %.2f)\n", ls.MeanSize, ls.SizeCV)
		fmt.Printf("mean service        %.1f s (CV %.2f, max %.1f)\n", ls.MeanService, ls.ServiceCV, ls.MaxService)
		fmt.Printf("below 900 s         %.1f%%\n", 100*ls.FracServiceUnderKill)
		fmt.Println()
		fmt.Print(dastrace.FormatTable1(ls))

	case "density":
		recs := loadLog(os.Args[2:])
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
		recs := loadLog(fs.Args())
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
		if err := dastrace.WriteSWF(w, recs, fmt.Sprintf("Filtered log\nJobs: %d", len(recs))); err != nil {
			fatalf("%v", err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}

	default:
		usage()
	}
}

// loadLog reads an SWF file when a path is given, and otherwise generates
// the canonical synthetic log.
func loadLog(args []string) []dastrace.Record {
	if len(args) == 0 {
		return dastrace.Default()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close() //detlint:ignore closecheck read-only handle; ReadSWF's error is the one that matters
	recs, err := dastrace.ReadSWF(f)
	if err != nil {
		fatalf("%v", err)
	}
	return recs
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mctrace gen|stats|density|filter [args]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mctrace: "+format+"\n", args...)
	os.Exit(1)
}
