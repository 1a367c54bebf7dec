package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets are the layers a CPU profile's flat time is attributed to,
// named after the program's packages. A few small packages share the bucket
// of the layer that drives them (see bucketOf).
var cpuBuckets = []string{
	"sim", "workload", "cluster", "queues", "policies", "core",
	"experiments", "obs", "dectrace", "stats", "runtime", "other",
}

// bucketOf maps a function name from `go tool pprof -top` to its bucket.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch pkg {
	case "coalloc/internal/sim":
		return "sim"
	case "coalloc/internal/workload", "coalloc/internal/dastrace",
		"coalloc/internal/dist", "coalloc/internal/rng":
		return "workload"
	case "coalloc/internal/cluster":
		return "cluster"
	case "coalloc/internal/queues":
		return "queues"
	case "coalloc/internal/policies":
		return "policies"
	case "coalloc/internal/core":
		return "core"
	case "coalloc/internal/experiments", "coalloc/internal/workpool",
		"coalloc/internal/plot":
		return "experiments"
	case "coalloc/internal/obs":
		return "obs"
	case "coalloc/internal/dectrace":
		return "dectrace"
	case "coalloc/internal/stats":
		return "stats"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "coalloc/internal/queues.(*FIFO[go.shape.*uint8]).Head (inline)": the
// text up to the first dot after the last slash, ignoring any slashes
// inside receiver or type-argument brackets.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseTop reads `go tool pprof -top` output and returns each bucket's
// share of the total flat time. Every bucket is present, and the shares
// sum to 1.
func parseTop(r io.Reader) (map[string]float64, error) {
	flat := make(map[string]float64, len(cpuBuckets))
	var total float64
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		secs, err := parseDuration(fields[0])
		if err != nil {
			return nil, err
		}
		flat[bucketOf(strings.Join(fields[5:], " "))] += secs
		total += secs
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = flat[b] / total
	}
	return shares, nil
}

// parseDuration parses a pprof time value such as "1.20s", "30ms", "0".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof -top: bad time %q", s)
			}
			return v * u.scale, nil
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("pprof -top: bad time %q", s)
}

// cpuShares runs `go tool pprof -top` on a CPU profile and buckets it.
func cpuShares(profile string) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTop(&out)
}
