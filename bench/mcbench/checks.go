package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"coalloc/internal/core"
)

// The checks below hold for any seed; the golden digests pin the outputs
// of seeds 1 and 2 exactly.

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkFinite(name string, vs ...float64) check {
	return check{Name: name + ": no NaN", OK: finite(vs...), Detail: fmt.Sprint(vs)}
}

// checkUtil checks 0 <= net <= gross <= 1.
func checkUtil(name string, net, gross float64) check {
	return check{Name: name + ": 0 <= net <= gross <= 1", OK: 0 <= net && net <= gross && gross <= 1,
		Detail: fmt.Sprintf("net %g, gross %g", net, gross)}
}

// checkLittle checks Little's law, L = X R, within 5%.
func checkLittle(name string, r core.Result) check {
	l, xr := r.MeanJobsInSystem, r.Throughput*r.MeanResponse
	return check{Name: name + ": Little's law within 5%", OK: math.Abs(l-xr) <= 0.05*math.Max(l, xr),
		Detail: fmt.Sprintf("L %g, X*R %g", l, xr)}
}

// checkRun checks one open-system run that must be stable.
func checkRun(name string, r core.Result, measure int) []check {
	return []check{
		checkFinite(name, r.MeanResponse, r.MedianResponse, r.P95Response, r.MeanSlowdown,
			r.GrossUtilization, r.NetUtilization, r.MeanJobsInSystem, r.Throughput),
		checkUtil(name, r.NetUtilization, r.GrossUtilization),
		checkLittle(name, r),
		{Name: name + ": stable, every measured job departed", OK: !r.Saturated && r.Jobs == measure,
			Detail: fmt.Sprintf("saturated %v, %d of %d jobs", r.Saturated, r.Jobs, measure)},
	}
}

// checkReplay checks one trace replay.
func checkReplay(name string, r core.ReplayResult, records int) []check {
	return []check{
		checkFinite(name, r.MeanResponse, r.MedianResponse, r.P95Response, r.MeanSlowdown, r.Makespan),
		checkUtil(name, r.NetUtilization, r.GrossUtilization),
		{Name: name + ": replayed jobs equal records", OK: r.Jobs == records,
			Detail: fmt.Sprintf("%d jobs, %d records", r.Jobs, records)},
	}
}

// checkBacklog checks one constant-backlog run.
func checkBacklog(name string, r core.BacklogResult) []check {
	return []check{
		checkFinite(name, r.MaxGrossUtilization, r.MaxNetUtilization, r.Throughput),
		checkUtil(name, r.MaxNetUtilization, r.MaxGrossUtilization),
		{Name: name + ": jobs departed", OK: r.Jobs > 0, Detail: fmt.Sprint(r.Jobs)},
	}
}

// checkSeries checks the plotted points of a sweep's CSV (series,x,y with
// x the gross utilization): no NaN outside a curve's last point, which may
// be its saturation terminator, and every gross utilization in [0, 1].
func checkSeries(name string, data []byte) []check {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) < 2 {
		return []check{{Name: name + ": readable", OK: false, Detail: fmt.Sprint(err)}}
	}
	var nanAt, utilAt []string
	for i, row := range rows[1:] {
		x, errx := strconv.ParseFloat(row[1], 64)
		y, erry := strconv.ParseFloat(row[2], 64)
		last := i+2 == len(rows) || rows[i+2][0] != row[0]
		if errx != nil || erry != nil || (!last && !finite(x, y)) {
			nanAt = append(nanAt, fmt.Sprintf("%s@%s", row[0], row[1]))
		}
		if finite(x) && (x < 0 || x > 1) {
			utilAt = append(utilAt, fmt.Sprintf("%s@%s", row[0], row[1]))
		}
	}
	return []check{
		{Name: name + ": no NaN outside saturated terminators", OK: len(nanAt) == 0, Detail: fmt.Sprint(nanAt)},
		{Name: name + ": 0 <= gross <= 1", OK: len(utilAt) == 0, Detail: fmt.Sprint(utilAt)},
	}
}

// goldens maps workload -> seed -> output name -> SHA-256 of the output.
type goldens map[string]map[string]map[string]string

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func digests(outputs map[string]string) map[string]string {
	d := make(map[string]string, len(outputs))
	for name, s := range outputs {
		d[name] = digest(s)
	}
	return d
}

func loadGoldens(path string) (goldens, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// checkGolden compares a repetition's digests with the recorded ones. A
// seed with no record yields no checks.
func checkGolden(g goldens, workload string, seed uint64, got map[string]string) []check {
	want, ok := g[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil
	}
	return sameDigests("golden", want, got)
}

// sameDigests checks got against want, output by output.
func sameDigests(what string, want, got map[string]string) []check {
	names := make([]string, 0, len(want)+len(got))
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]check, len(names))
	for i, n := range names {
		out[i] = check{Name: what + " " + n, OK: want[n] != "" && want[n] == got[n]}
		if !out[i].OK {
			out[i].Detail = fmt.Sprintf("want %q, got %q", want[n], got[n])
		}
	}
	return out
}
