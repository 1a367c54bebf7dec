package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/dectrace"
	"coalloc/internal/plot"
	"coalloc/internal/workload"
)

// tinyParams keeps integration runs fast while still exercising the full
// pipeline.
func tinyParams() Params {
	p := QuickParams()
	p.WarmupJobs = 100
	p.MeasureJobs = 800
	p.Utilizations = []float64{0.2, 0.4, 0.6}
	p.BacklogWarmup = 5000
	p.BacklogMeasure = 30000
	return p
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"backfill", "checkpoint", "discipline", "extsweep", "faults", "fig1",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fits", "ratio", "reenable",
		"regret", "reqtypes", "sizeclasses", "table1", "table2", "table3", "workload"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %s lacks a description", n)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	env := NewEnv(tinyParams())
	if _, err := Run("nope", env); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunRejectsNonFinitePrecision: a NaN or infinite Params.Precision is
// an error naming the parameter, not a silent fixed-count run, for a sweep
// and for an experiment that runs no simulation alike.
func TestRunRejectsNonFinitePrecision(t *testing.T) {
	for _, prec := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, exp := range []string{"fig3", "table1"} {
			p := tinyParams()
			p.Precision = prec
			_, err := Run(exp, NewEnv(p))
			if err == nil || !strings.Contains(err.Error(), "Params.Precision") {
				t.Errorf("%s with precision %g: err %v, want one naming Params.Precision", exp, prec, err)
			}
		}
	}
}

func TestCheapExperimentsRender(t *testing.T) {
	env := NewEnv(tinyParams())
	expect := map[string][]string{
		"table1":   {"Table 1", "0.190"},
		"table2":   {"Table 2", "paper"},
		"fig1":     {"Fig. 1", "64"},
		"fig2":     {"Fig. 2", "900"},
		"ratio":    {"gross/net", "1.2"},
		"workload": {"DAS-s-128", "DAS-t-900"},
	}
	for name, wants := range expect {
		out, err := Run(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", name, w)
			}
		}
	}
}

func TestFig3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("fig3", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"limit 16", "limit 24", "limit 32", "balanced", "unbalanced", "SC", "LS", "GS", "LP"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig3 output missing %q", w)
		}
	}
}

func TestFig4Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	env := NewEnv(p)
	out, err := Run("fig4", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"local avg", "global avg", "gross util", "net util", "LP"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig4 output missing %q", w)
		}
	}
}

func TestFig5Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("fig5", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"SC 64", "SC 128", "LS 64", "LS 128"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig5 output missing %q", w)
		}
	}
}

func TestFig6And7Render(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	env := NewEnv(p)
	out6, err := Run("fig6", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"LS 16", "LS 24", "LS 32", "GS 16"} {
		if !strings.Contains(out6, w) {
			t.Errorf("fig6 output missing %q", w)
		}
	}
	out7, err := Run("fig7", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"gross", "net", "ratio"} {
		if !strings.Contains(out7, w) {
			t.Errorf("fig7 output missing %q", w)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("table3", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Table 3", "16", "24", "32", "SC reference"} {
		if !strings.Contains(out, w) {
			t.Errorf("table3 output missing %q", w)
		}
	}
}

func TestCurveStopsAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95} // 0.9 saturates GS
	env := NewEnv(p)
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	curves, err := env.Curves([]CurveSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(curves[0].X); n != 2 {
		t.Errorf("curve has %d points; the sweep should stop at the first saturated point", n)
	}
}

func TestSaveCSVWritesFiles(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	p.DataDir = dir
	env := NewEnv(p)
	if _, err := Run("fig1", env); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y") {
		t.Errorf("CSV header missing: %q", string(data[:20]))
	}
}

func TestDefaultAndQuickParams(t *testing.T) {
	d := DefaultParams()
	q := QuickParams()
	if d.MeasureJobs <= q.MeasureJobs {
		t.Error("default params should be heavier than quick")
	}
	if len(d.Utilizations) == 0 || d.Utilizations[0] != 0.10 {
		t.Errorf("default grid %v", d.Utilizations)
	}
	last := d.Utilizations[len(d.Utilizations)-1]
	if last < 0.9 || last > 0.96 {
		t.Errorf("default grid ends at %g", last)
	}
}

func TestBalanceName(t *testing.T) {
	if balanceName(nil) != "balanced" || balanceName([]float64{2, 1}) != "unbalanced" {
		t.Error("balance names")
	}
}

func TestRunSetOrderAndErrors(t *testing.T) {
	env := NewEnv(tinyParams())
	cs := CurveSpec{
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	grid := []float64{0.2, 0.3, 0.4}
	out, err := env.runSet([]curveJob{{grid: grid, config: func(u float64) core.Config {
		return env.pointConfig(cs, u)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	results := out[0]
	if len(results) != len(grid) {
		t.Fatalf("%d results for %d points", len(results), len(grid))
	}
	// Results are in grid order: offered load increases monotonically.
	for i := 1; i < len(results); i++ {
		if results[i].OfferedGross <= results[i-1].OfferedGross {
			t.Errorf("results out of grid order: %v then %v",
				results[i-1].OfferedGross, results[i].OfferedGross)
		}
	}
	// Errors propagate.
	_, err = env.runSet([]curveJob{{grid: grid, config: func(u float64) core.Config {
		cfg := env.pointConfig(cs, u)
		if u == 0.3 {
			cfg.Policy = "bogus"
		}
		return cfg
	}}})
	if err == nil || !strings.Contains(err.Error(), `unknown policy "bogus"`) {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestTypedPointsKeepEnvSettings checks that the request-type curves run
// with the Env's settings: with Params.Decisions set, every request type
// records its scheduling decisions, not only the unordered curves.
func TestTypedPointsKeepEnvSettings(t *testing.T) {
	p := tinyParams()
	p.Decisions = &dectrace.Options{}
	env := NewEnv(p)
	cs := CurveSpec{
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	for _, rt := range []workload.RequestType{workload.Unordered, workload.Ordered, workload.Flexible} {
		res, err := env.runPoint(env.typedConfig(cs, rt, 0.4))
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if res.Decisions == 0 {
			t.Errorf("%s requests recorded no decisions with Params.Decisions set", rt)
		}
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	// The parallel sweep must produce byte-identical curves to a serial
	// evaluation of the same points (each point is an independent,
	// seeded simulation).
	env := NewEnv(tinyParams())
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	curves, err := env.Curves([]CurveSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	par := curves[0]
	var serial plot.Series
	for _, u := range env.Utilizations {
		res, err := env.runPoint(env.pointConfig(cs, u))
		if err != nil {
			t.Fatal(err)
		}
		serial.Add(res.GrossUtilization, res.MeanResponse)
		if res.Saturated || res.MeanResponse > env.ResponseCap {
			break
		}
	}
	if len(par.X) != len(serial.X) {
		t.Fatalf("parallel %d points, serial %d", len(par.X), len(serial.X))
	}
	for i := range serial.X {
		if par.X[i] != serial.X[i] || par.Y[i] != serial.Y[i] {
			t.Fatalf("point %d differs: (%g,%g) vs (%g,%g)",
				i, par.X[i], par.Y[i], serial.X[i], serial.Y[i])
		}
	}
}

func TestAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	p.BacklogWarmup = 2000
	p.BacklogMeasure = 10000
	env := NewEnv(p)
	expect := map[string][]string{
		"reqtypes":    {"unordered", "ordered", "flexible", "total"},
		"fits":        {"WF", "FF", "BF"},
		"extsweep":    {"1.00", "1.25", "1.50", "SC reference"},
		"reenable":    {"disable order", "fixed order"},
		"backfill":    {"GS-EASY", "GS-CONS", "SC-EASY"},
		"discipline":  {"FCFS", "SPF", "EASY"},
		"sizeclasses": {"65-128", "SC", "LS"},
	}
	for name, wants := range expect {
		out, err := Run(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", name, w)
			}
		}
	}
}

func TestDegradationRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("faults", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"degradation under processor failures",
		"MTTR 900 s",
		"fail/hr", "kills", "avail",
		"GS", "LS", "LP",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("degradation output missing %q", w)
		}
	}
	// The grid's fault-free anchor point must be present.
	if !strings.Contains(out, "0.00") {
		t.Error("degradation output missing the zero-failure-rate row")
	}
}

// TestCheckpointRenders runs the checkpoint-interval sweep at test fidelity
// and checks the report carries both policies, the no-checkpointing
// baseline, and the saved-work accounting.
func TestCheckpointRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("checkpoint", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"work lost vs checkpoint interval",
		"MTBF 1000 s", "MTTR 900 s",
		"saved(proc-s)", "lost/kill",
		"GS-EASY", "GS-CONS",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("checkpoint output missing %q", w)
		}
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3}
	p.MeasureJobs = 400
	p.WarmupJobs = 50
	p.BacklogWarmup = 1000
	p.BacklogMeasure = 5000
	env := NewEnv(p)
	out, err := All(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if !strings.Contains(out, "================ "+name+" ================") {
			t.Errorf("All output missing section %q", name)
		}
	}
	// Sweep points skip the statistics only the commands report, which
	// are NaN in their Results (core.Config.SweepStats): an experiment
	// that printed one would show NaN here.
	if n := strings.Count(out, "NaN"); n != 0 {
		t.Errorf("All output contains NaN %d times", n)
	}
}

// TestSweepMatchesPerPolicyRuns is the sweep-level common-random-numbers
// guardrail. Every curve of a sweep point gets the same seed and arrival
// rate, so all policies draw the same job stream, and sweeping the curves
// together must return exactly what running each point's configuration
// alone returns.
func TestSweepMatchesPerPolicyRuns(t *testing.T) {
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	p.Replications = 2
	env := NewEnv(p)
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	specs := []CurveSpec{
		{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LP", Policy: "LP", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS-unbal", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec,
			QueueWeights: core.Unbalanced(len(MulticlusterSizes))},
	}
	sets, err := env.CurveSet(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, util := range p.Utilizations {
		ref := env.pointConfig(specs[0], util)
		for ci, cs := range specs {
			cfg := env.pointConfig(cs, util)
			if cfg.Seed != ref.Seed || cfg.ArrivalRate != ref.ArrivalRate {
				t.Fatalf("%s point %d: seed %d rate %v, GS has seed %d rate %v",
					cs.Label, i, cfg.Seed, cfg.ArrivalRate, ref.Seed, ref.ArrivalRate)
			}
			if i >= len(sets[ci]) {
				t.Fatalf("%s: sweep stopped before point %d", cs.Label, i)
			}
			want, err := env.runPoint(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cs.Label, err)
			}
			// Sprintf covers every field (Result holds slices and
			// NaN-able floats, so == is unavailable and unwanted).
			if a, b := fmt.Sprintf("%+v", sets[ci][i]), fmt.Sprintf("%+v", want); a != b {
				t.Fatalf("%s point %d differs:\n  sweep: %s\n  alone: %s", cs.Label, i, a, b)
			}
		}
	}
}

func TestRegistryMetadata(t *testing.T) {
	if Known("nope") {
		t.Error("Known accepted an unregistered name")
	}
	if UsesSimulations("nope") || UsesConservative("nope") {
		t.Error("unknown experiment claims flag applicability")
	}
	for _, n := range []string{"fig3", "fig5", "regret", "backfill"} {
		if !Known(n) || !UsesSimulations(n) {
			t.Errorf("%s should be a known simulation experiment", n)
		}
	}
	for _, n := range []string{"table1", "fig1", "ratio", "workload"} {
		if UsesSimulations(n) {
			t.Errorf("%s runs no simulations but claims -decisions applies", n)
		}
	}
	for _, n := range []string{"backfill", "faults", "checkpoint"} {
		if !UsesConservative(n) {
			t.Errorf("%s runs GS-CONS but claims -lookahead does not apply", n)
		}
	}
	if UsesConservative("fig3") || UsesConservative("regret") {
		t.Error("non-backfilling experiments claim -lookahead applies")
	}
}

func TestRankSummaryNeverStable(t *testing.T) {
	stable := plot.Series{Name: "ok", X: []float64{0.2, 0.4}, Y: []float64{10, 20}}

	// A curve whose very first grid point was a saturation terminator has
	// no stable points at all; it must rank as "never stable", not 0.00.
	allSat := plot.Series{Name: "sat", X: []float64{0.2}, Y: []float64{50000}, Saturated: true}
	out := rankSummary([]plot.Series{stable, allSat})
	if !strings.Contains(out, "ok 0.40") {
		t.Errorf("stable curve misranked: %q", out)
	}
	if !strings.Contains(out, "sat never stable") {
		t.Errorf("all-saturated curve not reported as never stable: %q", out)
	}
	if strings.Contains(out, "sat 0.00") {
		t.Errorf("all-saturated curve got a fabricated rank: %q", out)
	}

	// Every measured response above the plot cap: also never stable.
	overCap := plot.Series{Name: "cap", X: []float64{0.2, 0.4}, Y: []float64{20000, 30000}}
	if out := rankSummary([]plot.Series{overCap}); !strings.Contains(out, "cap never stable") {
		t.Errorf("over-cap curve not reported as never stable: %q", out)
	}

	// Degenerate: a marked-saturated series with zero points must not
	// panic on the terminator slice.
	empty := plot.Series{Name: "empty", Saturated: true}
	if out := rankSummary([]plot.Series{empty}); !strings.Contains(out, "empty never stable") {
		t.Errorf("empty saturated curve: %q", out)
	}
}

func TestRegretExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	dir := t.TempDir()
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.6}
	p.DataDir = dir
	env := NewEnv(p)
	out, err := Run("regret", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Regret —", "mean regret per job", "GS 128", "LS 64"} {
		if !strings.Contains(out, w) {
			t.Errorf("regret output missing %q", w)
		}
	}
	if env.Decisions != nil {
		t.Error("regret experiment leaked Decisions into the shared Env")
	}
	data, err := os.ReadFile(filepath.Join(dir, "regret.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "GS 128") {
		t.Errorf("regret.csv missing series header: %s", data)
	}
}
