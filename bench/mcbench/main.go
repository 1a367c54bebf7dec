// Command mcbench is the repository benchmark. It runs the benchmark
// workloads, checks their outputs, and prints every metric by name with its
// unit; the last line of its output is one JSON object with the result.
//
// Usage:
//
//	mcbench -workload <name>|all [-seed N] [-reps 5 | -seconds S] [-traced] [-json FILE]
//	mcbench compare parent.json change.json
//	mcbench record-golden
//
// Each repetition runs in a fresh child process (the program re-executes
// itself), so the set-up, CPU time and peak RSS of one repetition never mix
// with another's. With several workloads the repetitions rotate round-robin
// across them. bench/README.md describes the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a repetition times its workload's
	// set-up; it runs the last instance.
	setupReps = 5
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

type options struct {
	workload string
	seed     uint64
	reps     int
	seconds  int
	traced   bool
	jsonPath string
	root     string

	// Set only in child processes.
	child   string // "rep", "traced" or "suite"
	profile string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "record-golden":
			os.Exit(recordGoldenMain(os.Args[2:]))
		}
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(2)
	}
	if o.child != "" {
		err = childMain(o, os.Stdout)
	} else {
		err = runMain(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all (have "+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are made from")
	fs.IntVar(&o.reps, "reps", 5, "untraced repetitions per workload (ignored when -seconds is set)")
	fs.IntVar(&o.seconds, "seconds", 0, "measure each workload for about this many seconds instead of -reps")
	fs.BoolVar(&o.traced, "traced", false, "also run one traced repetition and the layer suite, and report the per-layer metrics")
	trace := fs.Int("trace", 0, "1 is -traced, 0 is not")
	fs.StringVar(&o.jsonPath, "json", "", "append one JSON record per workload to this file")
	fs.StringVar(&o.root, "root", ".", "repository root: bench/golden.json is read from it and .bench_build/ written under it")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition in this process")
	fs.StringVar(&o.profile, "profile", "", "internal: CPU profile path of a traced repetition")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch *trace {
	case 0:
	case 1:
		o.traced = true
	default:
		return o, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if _, ok := findWorkload(o.workload); !ok && !(o.workload == "all" && o.child == "") {
		return o, fmt.Errorf("-workload %q: want one of %s, or all", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.reps < 1 || o.seconds < 0 {
		return o, fmt.Errorf("-reps %d must be >= 1 and -seconds %d >= 0", o.reps, o.seconds)
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// repResult is what one child process reports.
type repResult struct {
	WallS   float64            `json:"wall_s"`
	CPUS    float64            `json:"cpu_s"`
	SetupS  []float64          `json:"setup_s"`
	PeakMB  float64            `json:"peak_rss_mb"`
	Scale   float64            `json:"scale"` // host speed factor, filled in by the parent (see calib.go)
	Seed    uint64             `json:"seed"`
	Jobs    int                `json:"jobs"`
	Digests map[string]string  `json:"digests,omitempty"`
	Checks  []check            `json:"checks,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Spans   map[string]spanAgg `json:"spans,omitempty"`
	Stamps  []float64          `json:"stamps,omitempty"`
	Points  int                `json:"points"`
}

func (o options) config(dir string) config {
	return config{seed: o.seed, tmp: dir}
}

func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// childMain runs one repetition (or the layer suite) in this process and
// writes its repResult to out as one JSON line.
func childMain(o options, out io.Writer) (err error) {
	dir, err := os.MkdirTemp(buildDir(o.root), "rep-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	var res *repResult
	if o.child == "suite" {
		res, err = suiteChild(o.config(dir))
	} else {
		w, _ := findWorkload(o.workload)
		res, err = repChild(w, o, o.config(dir))
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

func suiteChild(c config) (*repResult, error) {
	t := newTracer()
	layer, checks, err := runSuite(c, t)
	if err != nil {
		return nil, err
	}
	return &repResult{Layer: layer, Checks: checks, Spans: t.snapshot()}, nil
}

// repChild times the workload's set-up setupReps times, runs the timed
// part of the last instance once and checks it. setup_s pools the set-up
// times of all the run's repetitions, so it spans several processes and
// moments rather than one. A traced repetition also records spans, a CPU profile, memory statistics
// and the completion time of every unit of work.
func repChild(w benchWorkload, o options, c config) (*repResult, error) {
	var prog *progressLog
	if o.child == "traced" {
		prog = &progressLog{}
	}
	setups, inst := timeSetup(w, c, prog, setupReps)
	var t *tracer
	var mem0, mem1 runtime.MemStats
	var profile *os.File
	if o.child == "traced" {
		t = newTracer()
		var err error
		if profile, err = os.Create(o.profile); err != nil {
			return nil, err
		}
		defer profile.Close() //detlint:ignore closecheck the success path closes it and checks the error; this one only covers error returns
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
		runtime.ReadMemStats(&mem0)
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	if prog != nil {
		prog.start = start
	}
	root := t.begin(w.name, -1)
	runErr := inst.run(t, root)
	t.end(root)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	if runErr != nil {
		return nil, runErr
	}
	res := &repResult{WallS: wall, CPUS: cpu, SetupS: setups, Seed: c.seed}
	if t != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem1)
		res.Spans = t.snapshot()
		res.Layer = map[string]float64{
			"runtime.alloc_mb":    float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20),
			"runtime.gc_cycles":   float64(mem1.NumGC - mem0.NumGC),
			"runtime.gc_pause_ms": float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6,
		}
	}
	if prog != nil {
		res.Stamps, res.Points = prog.stamps, prog.points
	}
	oc, err := inst.check()
	if err != nil {
		return nil, err
	}
	res.Jobs, res.Checks, res.Digests = oc.jobs, oc.checks, digests(oc.outputs)
	res.PeakMB, err = peakRSS()
	return res, err
}

// peakRSS returns this process's peak resident set size in MB: VmHWM of
// /proc/self/status. getrusage's maxrss would not do: a child started with
// vfork reports at least its parent's peak, which it inherits at exec.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds returns the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// repSeed is the seed of a run's k-th untraced repetition. Each repetition
// works on inputs of its own, so a run's median covers several seeds and
// depends less on how much work one seed's sweep happens to make; the
// first repetition, the traced one and the layer suite use the run's seed.
func repSeed(seed uint64, k int) uint64 { return seed + uint64(k)*1000003 }

// spawn runs one child of this program at the given seed and returns its
// result and the wall time the spawn took.
func spawn(o options, seed uint64, w, mode string, extra ...string) (*repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-child", mode, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-root", o.root}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s %s repetition: %w", w, mode, err)
	}
	elapsed := time.Since(start).Seconds()
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s %s repetition: %w", w, mode, err)
	}
	return &res, elapsed, nil
}

// workloadRun collects everything one run measures on one workload.
type workloadRun struct {
	w       benchWorkload
	reps    []*repResult
	elapsed float64 // seconds spent in untraced repetitions
	last    float64 // seconds the latest repetition took
	traced  *repResult
	suite   *repResult
	shares  map[string]float64
}

// wantsRep reports whether the workload needs another untraced
// repetition. In time mode a repetition starts while it is expected to end
// no later than half a repetition past the window, so the measured time is
// the window to within half a repetition. A traced run spends half its
// window on the traced repetition and the layer suite.
func (r *workloadRun) wantsRep(o options) bool {
	if len(r.reps) == 0 {
		return true
	}
	if o.seconds == 0 {
		return len(r.reps) < o.reps
	}
	window := float64(o.seconds)
	if o.traced {
		window /= 2
	}
	return r.elapsed+r.last/2 < window
}

func runMain(o options, stdout io.Writer) error {
	g, err := loadGoldens(filepath.Join(o.root, "bench", "golden.json"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir(o.root), 0o755); err != nil {
		return err
	}
	var runs []*workloadRun
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			runs = append(runs, &workloadRun{w: w})
		}
	}
	var sp speed
	sp.factor()
	for more := true; more; {
		more = false
		for _, r := range runs {
			if !r.wantsRep(o) {
				continue
			}
			res, elapsed, err := spawn(o, repSeed(o.seed, len(r.reps)), r.w.name, "rep")
			if err != nil {
				return err
			}
			res.Scale = sp.factor()
			r.reps = append(r.reps, res)
			r.elapsed += elapsed
			r.last = elapsed
			more = true
		}
	}
	if o.traced {
		for _, r := range runs {
			if err := r.runTraced(o, &sp); err != nil {
				return err
			}
		}
	}
	var reports []*report
	for _, r := range runs {
		rep := r.report(g)
		reports = append(reports, rep)
		rep.print(stdout, o.traced)
		if o.jsonPath != "" {
			if err := appendRecord(o.jsonPath, rep.record(o)); err != nil {
				return err
			}
		}
	}
	line, failed, err := resultLine(reports, o.traced)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// runTraced runs the traced repetition and the layer suite, and buckets
// the traced repetition's CPU profile.
func (r *workloadRun) runTraced(o options, sp *speed) error {
	profile := filepath.Join(buildDir(o.root), fmt.Sprintf("%s-%d-%d.pprof", r.w.name, o.seed, os.Getpid()))
	defer os.Remove(profile)
	var err error
	if r.traced, _, err = spawn(o, o.seed, r.w.name, "traced", "-profile", profile); err != nil {
		return err
	}
	r.traced.Scale = sp.factor()
	if r.suite, _, err = spawn(o, o.seed, r.w.name, "suite"); err != nil {
		return err
	}
	r.shares, err = cpuShares(profile)
	return err
}

// report is one workload's metrics and checks.
type report struct {
	workload string
	e2e      map[string]summary
	layer    map[string]summary
	spans    map[string]spanAgg
	checks   []check
}

func (r *workloadRun) report(g goldens) *report {
	rep := &report{workload: r.w.name, e2e: make(map[string]summary), layer: make(map[string]summary)}
	var walls, rawWalls, cpus, rss, setups, rates, scales []float64
	procs := runtime.GOMAXPROCS(0)
	for i, res := range r.reps {
		walls = append(walls, res.WallS*res.Scale)
		rawWalls = append(rawWalls, res.WallS)
		cpus = append(cpus, res.CPUS*res.Scale)
		rss = append(rss, res.PeakMB)
		for _, s := range res.SetupS {
			setups = append(setups, s*res.Scale)
		}
		scales = append(scales, res.Scale)
		rates = append(rates, float64(res.Jobs)/(res.WallS*res.Scale))
		rep.checks = append(rep.checks, repChecks(fmt.Sprintf("rep %d", i+1), res, r.reps[0], g, r.w.name)...)
	}
	rep.e2e["wall_s"] = summarize("s", walls)
	rep.e2e["cpu_s"] = summarize("s", cpus)
	rep.e2e["peak_rss_mb"] = summarize("MB", rss)
	rep.e2e["setup_s"] = summarize("s", setups)
	if r.w.name == "job-sources" {
		rep.e2e["sim_jobs_per_s"] = summarize("jobs/s", rates)
	}
	rep.e2e["raw_wall_s"] = summarize("s", rawWalls)
	rep.e2e["host_speed"] = summarize("ratio", scales)
	if r.traced != nil {
		rep.checks = append(rep.checks, repChecks("traced", r.traced, r.reps[0], g, r.w.name)...)
		rep.checks = append(rep.checks, prefixChecks("suite", r.suite.Checks)...)
		layer := map[string]float64{
			"trace_overhead":           r.traced.WallS*r.traced.Scale/(r.reps[0].WallS*r.reps[0].Scale) - 1,
			"experiments.points_run":   float64(r.traced.Points),
			"experiments.parallel_eff": r.traced.CPUS / (r.traced.WallS * float64(procs)),
			"experiments.tail_s":       tail(r.traced.Stamps, r.traced.WallS, procs),
		}
		for k, v := range r.traced.Layer {
			layer[k] = v
		}
		for k, v := range r.suite.Layer {
			layer[k] = v
		}
		for b, v := range r.shares {
			layer["cpu_share."+b] = v
		}
		for _, d := range perLayer {
			rep.layer[d.name] = summarize(d.unit, []float64{layer[d.name]})
		}
		rep.spans = make(map[string]spanAgg)
		for _, spans := range []map[string]spanAgg{r.traced.Spans, r.suite.Spans} {
			for k, v := range spans {
				rep.spans[k] = v
			}
		}
	}
	failed := 0
	for _, c := range rep.checks {
		if !c.OK {
			failed++
		}
	}
	rep.e2e["fail_ratio"] = summarize("ratio", []float64{float64(failed) / float64(len(rep.checks))})
	return rep
}

// repChecks returns one repetition's checks: its own, its digests against
// the goldens of its seed, and, for a repetition at the first one's seed,
// its digests against the first's (the simulator is deterministic, traced
// or not).
func repChecks(what string, res, first *repResult, g goldens, workload string) []check {
	checks := append(prefixChecks(what, res.Checks), prefixChecks(what, checkGolden(g, workload, res.Seed, res.Digests))...)
	if res != first && res.Seed == first.Seed {
		checks = append(checks, prefixChecks(what, sameDigests("same as rep 1:", first.Digests, res.Digests))...)
	}
	return checks
}

func prefixChecks(what string, cs []check) []check {
	out := make([]check, len(cs))
	for i, c := range cs {
		c.Name = what + ": " + c.Name
		out[i] = c
	}
	return out
}

func (rep *report) failures() []check {
	var out []check
	for _, c := range rep.checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// print writes the human-readable block: every metric by name with its
// unit, then the checks.
func (rep *report) print(w io.Writer, traced bool) {
	line := func(name string, s summary) {
		fmt.Fprintf(w, "%-15s %-32s %14.6g %-7s median of %d, min %.6g, max %.6g\n",
			rep.workload, name, s.Value, s.Unit, s.N, s.Min, s.Max)
	}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), reportOnly...), diagnostics...) {
		if s, ok := rep.e2e[d.name]; ok {
			line(d.name, s)
		}
	}
	if traced {
		for _, d := range perLayer {
			line(d.name, rep.layer[d.name])
		}
	}
	fails := rep.failures()
	fmt.Fprintf(w, "%-15s checks: %d attempted, %d failed\n", rep.workload, len(rep.checks), len(fails))
	for _, c := range fails {
		fmt.Fprintf(w, "%-15s FAILED %s %s\n", rep.workload, c.Name, c.Detail)
	}
}

// record is one line of the -json output.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Metrics    map[string]summary `json:"metrics"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []check            `json:"failures,omitempty"`
	Spans      map[string]spanAgg `json:"spans,omitempty"`
}

func (rep *report) record(o options) record {
	rec := record{
		Workload: rep.workload, Seed: o.seed, GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics:   make(map[string]summary),
		Attempted: len(rep.checks), Failures: rep.failures(), Spans: rep.spans,
	}
	rec.Failed = len(rec.Failures)
	for _, m := range []map[string]summary{rep.e2e, rep.layer} {
		for k, v := range m {
			rec.Metrics[k] = v
		}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //detlint:ignore closecheck error path: the write error is returned
		return err
	}
	return f.Close()
}

// resultLine renders the final line: the metrics BENCHMARK.json lists (the
// per-layer ones for a traced run), keyed "<workload>/<metric>" when
// several workloads ran. It also returns the number of failed checks.
func resultLine(reports []*report, traced bool) (string, int, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, rep := range reports {
		defs, vals := endToEnd, rep.e2e
		if traced {
			defs, vals = perLayer, rep.layer
		}
		for _, d := range defs {
			key := d.name
			if len(reports) > 1 {
				key = rep.workload + "/" + d.name
			}
			out.Metrics[key] = value{Value: vals[d.name].Value, Unit: d.unit}
		}
		out.Attempted += len(rep.checks)
		out.Failed += len(rep.failures())
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	return string(b), out.Failed, err
}

// recordGoldenMain re-records bench/golden.json: one repetition of every
// workload at seeds 1 and 2, refused if any seed-independent check fails.
func recordGoldenMain(args []string) int {
	fs := flag.NewFlagSet("mcbench record-golden", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(buildDir(*root), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	g := make(goldens)
	var failed []string
	for _, w := range workloads {
		g[w.name] = make(map[string]map[string]string)
		for _, seed := range []uint64{1, 2} {
			res, _, err := spawn(options{root: *root}, seed, w.name, "rep")
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcbench:", err)
				return 1
			}
			for _, c := range res.Checks {
				if !c.OK {
					failed = append(failed, fmt.Sprintf("%s seed %d: %s %s", w.name, seed, c.Name, c.Detail))
				}
			}
			g[w.name][strconv.FormatUint(seed, 10)] = res.Digests
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		fmt.Fprintln(os.Stderr, "mcbench: not recording goldens of failing outputs:\n"+strings.Join(failed, "\n"))
		return 1
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*root, "bench", "golden.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	return 0
}
