// Package cliutil centralizes the flag parsing, validation and log
// loading shared by the commands, so mcsim, mcexp and mctrace reject the
// same bad inputs with the same wording and the same exit status. Flag
// errors use status 2 (the conventional usage-error status), leaving
// status 1 for runtime failures.
package cliutil

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
)

// exit is swapped out by tests; the commands always exit the process.
var exit = os.Exit

// Failf prints "prog: message" to stderr and exits with status 2.
func Failf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	exit(2)
}

// fatalf prints "prog: message" to stderr and exits with status 1, the
// status of runtime failures.
func fatalf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	exit(1)
}

// SingleCluster reports whether policy schedules total requests on one
// cluster (SC, SC-EASY and SC-CONS).
func SingleCluster(policy string) bool { return strings.HasPrefix(policy, "SC") }

// Clusters parses the -clusters flag, comma-separated positive processor
// counts. The empty value selects the default system: four clusters of 32
// processors, or one of 128 for the single-cluster policies.
func Clusters(prog, v, policy string) []int {
	if v == "" {
		if SingleCluster(policy) {
			return []int{128}
		}
		return []int{32, 32, 32, 32}
	}
	var sizes []int
	for _, f := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			Failf(prog, "bad -clusters value %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// Fit parses the -fit flag: WF, FF or BF, in any case.
func Fit(prog, v string) cluster.Fit {
	switch strings.ToUpper(v) {
	case "WF":
		return cluster.WorstFit
	case "FF":
		return cluster.FirstFit
	case "BF":
		return cluster.BestFit
	}
	Failf(prog, "unknown fit rule %q (want WF, FF or BF)", v)
	return cluster.WorstFit
}

// LoadLog reads the SWF log named by the first of args, or generates the
// canonical synthetic DAS log when args is empty. A read error exits with
// status 1.
func LoadLog(prog string, args []string) []dastrace.Record {
	if len(args) == 0 {
		return dastrace.Default()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatalf(prog, "%v", err)
	}
	defer f.Close() //detlint:ignore closecheck read-only handle; ReadSWF's error is the one that matters
	recs, err := dastrace.ReadSWF(f)
	if err != nil {
		fatalf(prog, "%v", err)
	}
	return recs
}

// Observer opens the observer the -metrics and -trace flags ask for: nil
// when both are off, metrics only without a trace path, else one writing
// its JSONL trace to the file at tracePath. The returned function flushes
// the observer and closes the file; it exits with status 1 on a write
// error, since unchecked a full disk would silently truncate the trace.
func Observer(prog string, metrics bool, tracePath string) (*obs.Observer, func()) {
	if !metrics && tracePath == "" {
		return nil, func() {}
	}
	var f *os.File
	var trace io.Writer
	if tracePath != "" {
		var err error
		if f, err = os.Create(tracePath); err != nil {
			fatalf(prog, "%v", err)
		}
		trace = f
	}
	o := obs.New(trace)
	return o, func() {
		err := o.Close()
		if f != nil {
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			fatalf(prog, "writing trace: %v", err)
		}
	}
}

// CheckLookahead validates the -lookahead flag: 0 means "use the
// default" and is always accepted, explicit values must be >= 1, and an
// explicit value is rejected when nothing in the run uses conservative
// backfilling — a silently ignored bound reads as a measurement of a
// configuration that never ran. scope names what would have to be true
// for the flag to apply (e.g. "policy GS-CONS or SC-CONS").
func CheckLookahead(prog string, v int, applies bool, scope string) {
	if v == 0 {
		return
	}
	if v < 1 {
		Failf(prog, "-lookahead %d must be >= 1", v)
	}
	if !applies {
		Failf(prog, "-lookahead only applies to conservative backfilling; %s", scope)
	}
}

// CheckDecisions rejects -decisions when nothing in the run records
// scheduling decisions, for the same reason CheckLookahead rejects a
// dangling -lookahead. scope names what would have to be true for the
// flag to apply.
func CheckDecisions(prog string, on, applies bool, scope string) {
	if on && !applies {
		Failf(prog, "-decisions records per-decision placement traces of open-system simulations; %s", scope)
	}
}

// CheckRetryWindow validates the -retry-base/-retry-cap pair against the
// same defaulting the fault injector applies (0 means 10 s base, 600 s
// cap): after normalization the cap must be at least the base. Checking
// the normalized pair at the flag layer catches windows the raw-value
// check misses — e.g. an explicit base of 700 s with the default 600 s
// cap — before a sweep spends minutes to die on the same error inside
// the first run.
func CheckRetryWindow(prog string, base, cap float64) {
	checkNonNegative(prog, flagValue{"-retry-base", base}, flagValue{"-retry-cap", cap})
	s := faults.Spec{RetryBase: base, RetryCap: cap}.Normalized()
	if s.RetryCap < s.RetryBase {
		Failf(prog, "retry window [%g s, %g s] is empty: the cap must be at least the base (0 means the %g s default)",
			s.RetryBase, s.RetryCap, 600.0)
	}
}

// CheckFaultFlags validates the fault-model flags -mtbf, -mttr and
// -checkpoint-interval: each must be non-negative and finite. A NaN or
// negative -mtbf would otherwise silently mean no failures, and an
// infinite value would only fail inside the first run, with status 1.
func CheckFaultFlags(prog string, mtbf, mttr, ckptInterval float64) {
	checkNonNegative(prog, flagValue{"-mtbf", mtbf}, flagValue{"-mttr", mttr},
		flagValue{"-checkpoint-interval", ckptInterval})
}

// flagValue is a float flag's name and value.
type flagValue struct {
	name  string
	value float64
}

// checkNonNegative exits with status 2, naming the flag, at the first
// value that is negative, NaN or infinite.
func checkNonNegative(prog string, flags ...flagValue) {
	for _, f := range flags {
		if f.value < 0 || math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			Failf(prog, "%s %g must be non-negative and finite", f.name, f.value)
		}
	}
}
