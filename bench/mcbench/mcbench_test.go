package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartiles pins the helpers to Python's statistics.quantiles(n=4),
// the method the recorded spreads are computed with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10.2, 9.8}, 9.7, 10, 10.3}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); !near(m, tc.q2) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, m, tc.q2)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestParseTop(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "pprof_top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //detlint:ignore closecheck read-only fixture
	shares, err := parseTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // flat seconds of the fixture, out of 20
		"cluster": 3.5, "workload": 3.8, "stats": 1.5, "core": 1.2, "sim": 1,
		"queues": 0.9, "policies": 0.8, "experiments": 1.2, "obs": 0.3,
		"dectrace": 0.2, "runtime": 3.01, "other": 2.59,
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
		if !near(shares[b], want[b]/20) {
			t.Errorf("share %s = %g, want %g", b, shares[b], want[b]/20)
		}
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %g", sum)
	}
	if _, err := parseTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("want an error for output without samples")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"coalloc/internal/queues.(*FIFO[go.shape.*uint8]).Head (inline)":                  "queues",
		"sort.insertionSortLessFunc[go.shape.struct { coalloc/internal/core.t float64 }]": "other",
		"internal/runtime/maps.(*Map).Get":                                                "runtime",
		"runtime.mallocgc":                                                                "runtime",
		"coalloc/internal/workpool.Do.func1":                                              "experiments",
		"coalloc/bench/mcbench.(*harness).Dispatch":                                       "other",
		"coalloc/internal/faults.(*Injector).NextFailure":                                 "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProgressLines(t *testing.T) {
	for _, line := range []string{
		"LS 128: util 0.55 -> response 1234 s (7/300 points)",
		"GS: util 0.95 saturated (12/288 points)",
		"SC: util 0.10 failed: core: boom: util 3",
	} {
		if !isPointLine(line) {
			t.Errorf("isPointLine(%q) = false", line)
		}
	}
	for _, line := range []string{"", "GS util 0.5", "GS: util x -> response 1 s", "GS: util 0.5 queued", "GS: util 0.5"} {
		if isPointLine(line) {
			t.Errorf("isPointLine(%q) accepted a malformed line", line)
		}
	}
	// Lines split across writes count once, when complete; junk counts never.
	p := &progressLog{start: time.Now()}
	for _, chunk := range []string{"GS: util 0.10 -> resp", "onse 9 s (1/2 points)\nnoise\nLP: util 0.2", "0 saturated (2/2 points)\n"} {
		if _, err := p.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	p.stamp()
	if p.points != 2 || len(p.stamps) != 3 {
		t.Errorf("progress log: %d points, %d stamps; want 2 and 3", p.points, len(p.stamps))
	}
	if got := tail([]float64{1, 4, 2, 3}, 5, 2); got != 2 {
		t.Errorf("tail = %g, want 2 (5 s wall, second-to-last unit done at 3 s)", got)
	}
	if got := tail([]float64{1}, 5, 2); got != 5 {
		t.Errorf("tail with fewer units than workers = %g, want the wall", got)
	}
}

func TestAggregateSelfTime(t *testing.T) {
	s := time.Second
	spans := []span{
		{name: "root", start: 0, end: 10 * s, parent: -1},
		{name: "task", start: 1 * s, end: 5 * s, parent: 0}, // two tasks in parallel:
		{name: "task", start: 2 * s, end: 6 * s, parent: 0}, // their union is 1..6
		{name: "call", start: 2 * s, end: 3 * s, parent: 1},
		{name: "open", start: 7 * s, end: -1, parent: 0}, // never closed: ignored
	}
	agg := aggregate(spans)
	for name, want := range map[string]spanAgg{
		"root": {Count: 1, TotalS: 10, SelfS: 5},
		"task": {Count: 2, TotalS: 8, SelfS: 7},
		"call": {Count: 1, TotalS: 1, SelfS: 1},
	} {
		if agg[name] != want {
			t.Errorf("%s: %+v, want %+v", name, agg[name], want)
		}
	}
	if _, ok := agg["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1); id != -1 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestVerdicts(t *testing.T) {
	wall := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.10}
	layer := metricDef{name: "sim.ns_per_event", unit: "ns", better: "lower", moves: "wall_s on paper-fcfs"}
	parent := series(10, 0.05, 10) // 10.00..10.20, IQR 0.15
	for _, tc := range []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"every pair faster, medians apart", wall, series(9, 0.05, 10), improved},
		{"same distribution", wall, series(10, 0.05, 10), unchanged},
		{"faster within the parent's spread", wall, series(9.95, 0.05, 10), unchanged},
		{"slower beyond the bound", wall, series(11.5, 0.05, 10), worse},
		{"slower within the bound", wall, series(10.5, 0.05, 10), unchanged},
		{"spread wider than the bound", wall, series(9, 2, 10), unresolved},
		{"every run better by less than the parent's spread", wall, series(9.99, 0, 10), unchanged},
		{"spread wider than a tight bound, every run better", metricDef{name: "x", better: "lower", bound: 0.01}, series(9.99, 0, 10), unchanged},
		{"spread wider than a tight bound", metricDef{name: "x", better: "lower", bound: 0.01}, series(10, 0.05, 10), unresolved},
		{"too few pairs", wall, series(9, 0.05, 5), unresolved},
		{"layer metric improved", layer, series(9, 0.05, 10), improved},
		{"layer metric slower: no bound to break", layer, series(20, 0.05, 10), unchanged},
	} {
		if got, _, _ := verdict(tc.d, parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	rate := metricDef{name: "sim_jobs_per_s", better: "higher", bound: 0.10}
	if got, wins, pairs := verdict(rate, parent, series(8, 0.05, 10)); got != worse || wins != 0 || pairs != 10 {
		t.Errorf("lower throughput: %s %d/%d, want worse 0/10", got, wins, pairs)
	}
	// Ties count for neither side: 8 wins and 2 ties is not 9/10.
	tied := append(series(9, 0.05, 8), parent[8], parent[9])
	if got, wins, _ := verdict(wall, parent, tied); got == improved || wins != 8 {
		t.Errorf("ties: %s with %d wins", got, wins)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, base float64) string {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			rec := record{Workload: "paper-fcfs", Metrics: map[string]summary{
				"wall_s": {Value: base + 0.01*float64(i%3), Unit: "s"},
			}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, change := write("parent.json", 10), write("change.json", 13)
	var out bytes.Buffer
	if code := compareMain([]string{parent, change}, &out); code != 1 {
		t.Errorf("a 30%% slowdown: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), worse) {
		t.Errorf("compare output lacks the verdict:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, parent}, &out); code != 0 {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
}

// TestGoldenMismatchFails corrupts one golden digest and checks that the
// repetition's report counts the failure.
func TestGoldenMismatchFails(t *testing.T) {
	outputs := map[string]string{"fig3.txt": "curves", "fig3.csv": "series,x,y\n"}
	rep := &repResult{WallS: 1, CPUS: 2, SetupS: []float64{0.01}, Seed: 1, Digests: digests(outputs), Checks: []check{{Name: "invariant", OK: true}}}
	g := goldens{"paper-fcfs": {"1": digests(outputs)}}
	run := &workloadRun{w: workloads[0], reps: []*repResult{rep}}
	if fr := run.report(g).e2e["fail_ratio"].Value; fr != 0 {
		t.Fatalf("matching goldens: fail_ratio %g", fr)
	}
	g["paper-fcfs"]["1"]["fig3.txt"] = digest("other curves")
	bad := run.report(g)
	if fr := bad.e2e["fail_ratio"].Value; fr <= 0 {
		t.Errorf("corrupted golden: fail_ratio %g, want > 0", fr)
	}
	line, failed, err := resultLine([]*report{bad}, false)
	if err != nil || failed != 1 || !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line %s (failed %d, err %v)", line, failed, err)
	}
	// Seeds without a record are checked by the invariants alone.
	if cs := checkGolden(g, "paper-fcfs", 3, rep.Digests); cs != nil {
		t.Errorf("seed 3 has no goldens, got checks %v", cs)
	}
}

func TestGoldenFileCoversWorkloads(t *testing.T) {
	g, err := loadGoldens(filepath.Join("..", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []string{"1", "2"} {
			if len(g[w.name][seed]) == 0 {
				t.Errorf("bench/golden.json has no outputs for %s seed %s", w.name, seed)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables
// and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	match := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better ||
				(m.Bound != nil) != bounded || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, d)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, true)
	match("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload and the layer suite once at reduced
// fidelity, in process, with the seed-independent checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := config{seed: 3, quick: true, tmp: t.TempDir()}
			prog := &progressLog{}
			inst := w.setup(c, prog)
			tr := newTracer()
			prog.start = time.Now()
			if err := inst.run(tr, tr.begin(w.name, -1)); err != nil {
				t.Fatal(err)
			}
			o, err := inst.check()
			if err != nil {
				t.Fatal(err)
			}
			if len(o.outputs) == 0 || len(o.checks) == 0 || len(prog.stamps) == 0 {
				t.Errorf("%d outputs, %d checks, %d units of work", len(o.outputs), len(o.checks), len(prog.stamps))
			}
			for _, c := range o.checks {
				if !c.OK {
					t.Errorf("%s: %s", c.Name, c.Detail)
				}
			}
		})
	}
	t.Run("suite", func(t *testing.T) {
		layer, checks, err := runSuite(config{seed: 3, quick: true, tmp: t.TempDir()}, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checks {
			if !c.OK {
				t.Errorf("%s: %s", c.Name, c.Detail)
			}
		}
		// The traced repetition itself supplies the rest.
		fromRep := map[string]bool{"trace_overhead": true, "experiments.points_run": true,
			"experiments.parallel_eff": true, "experiments.tail_s": true, "runtime.alloc_mb": true,
			"runtime.gc_cycles": true, "runtime.gc_pause_ms": true}
		for _, d := range perLayer {
			if _, ok := layer[d.name]; !ok && !fromRep[d.name] && !strings.HasPrefix(d.name, "cpu_share.") {
				t.Errorf("the suite does not report %s", d.name)
			}
		}
	})
}
