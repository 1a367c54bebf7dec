package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dectrace"
	"coalloc/internal/dist"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// TestPointKeyCoversConfig walks core.Config by reflection: every field,
// and every field of the Spec and Faults it holds, must either be in the
// point key, so that changing it changes the key, or be on the bypass
// list, so that setting it keeps the point out of the key altogether. A
// Config field added later that is in neither table fails here, before a
// sweep can hand one point's Result to a point that differs in it.
func TestPointKeyCoversConfig(t *testing.T) {
	env := NewEnv(tinyParams())
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	base := env.pointConfig(CurveSpec{Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec}, 0.5)
	base.QueueWeights = core.Balanced(len(MulticlusterSizes))
	base.Faults = &faults.Spec{MTBF: 1000, MTTR: 900, RetryBase: 10, RetryCap: 600, CheckpointInterval: 60}
	keyed := map[string]func(*core.Config){
		"ClusterSizes":              func(c *core.Config) { c.ClusterSizes = []int{32, 32, 32, 16} },
		"Spec.Sizes":                func(c *core.Config) { c.Spec.Sizes = env.Derived.Sizes64 },
		"Spec.Service":              func(c *core.Config) { c.Spec.Service = dist.NewEmpiricalCont([]float64{1, 2, 3}) },
		"Spec.ComponentLimit":       func(c *core.Config) { c.Spec.ComponentLimit = 24 },
		"Spec.Clusters":             func(c *core.Config) { c.Spec.Clusters = 2 },
		"Spec.ExtensionFactor":      func(c *core.Config) { c.Spec.ExtensionFactor = 1.5 },
		"Policy":                    func(c *core.Config) { c.Policy = "LP" },
		"RequestType":               func(c *core.Config) { c.RequestType = workload.Ordered },
		"Fit":                       func(c *core.Config) { c.Fit = cluster.FirstFit },
		"Lookahead":                 func(c *core.Config) { c.Lookahead = 8 },
		"ArrivalRate":               func(c *core.Config) { c.ArrivalRate *= 1.01 },
		"QueueWeights":              func(c *core.Config) { c.QueueWeights = core.Unbalanced(len(MulticlusterSizes)) },
		"WarmupJobs":                func(c *core.Config) { c.WarmupJobs++ },
		"NoWarmup":                  func(c *core.Config) { c.NoWarmup = true },
		"MeasureJobs":               func(c *core.Config) { c.MeasureJobs++ },
		"Seed":                      func(c *core.Config) { c.Seed++ },
		"SaturationCutoff":          func(c *core.Config) { c.SaturationCutoff = !c.SaturationCutoff },
		"SweepStats":                func(c *core.Config) { c.SweepStats = !c.SweepStats },
		"Faults":                    func(c *core.Config) { c.Faults = nil },
		"Faults.MTBF":               func(c *core.Config) { c.Faults.MTBF++ },
		"Faults.MTTR":               func(c *core.Config) { c.Faults.MTTR++ },
		"Faults.RetryBase":          func(c *core.Config) { c.Faults.RetryBase++ },
		"Faults.RetryCap":           func(c *core.Config) { c.Faults.RetryCap++ },
		"Faults.CheckpointInterval": func(c *core.Config) { c.Faults.CheckpointInterval++ },
	}
	bypass := map[string]func(*core.Config){
		"Observer":  func(c *core.Config) { c.Observer = obs.New(nil) },
		"Decisions": func(c *core.Config) { c.Decisions = &dectrace.Options{} },
	}
	// mutated copies cfg deeply enough that a mutator never writes into
	// base's slices or fault spec.
	mutated := func(mutate func(*core.Config)) core.Config {
		c := base
		c.ClusterSizes = append([]int(nil), base.ClusterSizes...)
		c.QueueWeights = append([]float64(nil), base.QueueWeights...)
		fs := *base.Faults
		c.Faults = &fs
		mutate(&c)
		return c
	}
	baseKey, ok := env.pointKey(base)
	if !ok {
		t.Fatal("the base config is not keyed")
	}
	// Equal values in fresh slices and a fresh fault spec give the same
	// key: slices and faults are keyed by value, not by address.
	if k, ok := env.pointKey(mutated(func(*core.Config) {})); !ok || k != baseKey {
		t.Error("a value-equal copy of the config has another key")
	}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			name := prefix + typ.Field(i).Name
			if ft := typ.Field(i).Type; ft == reflect.TypeOf(workload.Spec{}) {
				walk(name+".", ft)
				continue
			}
			if mutate, ok := bypass[name]; ok {
				if _, keyed := env.pointKey(mutated(mutate)); keyed {
					t.Errorf("setting %s keeps the point keyed; it is on the bypass list", name)
				}
				continue
			}
			mutate, ok := keyed[name]
			if !ok {
				t.Errorf("core.Config field %s is neither in the point key nor on the bypass list", name)
				continue
			}
			if k, keyed := env.pointKey(mutated(mutate)); keyed && k == baseKey {
				t.Errorf("changing %s leaves the point key unchanged", name)
			}
			if ft := typ.Field(i).Type; ft == reflect.TypeOf(&faults.Spec{}) {
				walk(name+".", ft.Elem())
			}
		}
	}
	walk("", reflect.TypeOf(core.Config{}))

	// The Env's replication settings reach every run of a point.
	for name, set := range map[string]func(*Params){
		"Replications":    func(p *Params) { p.Replications++ },
		"Precision":       func(p *Params) { p.Precision = 0.05 },
		"MaxReplications": func(p *Params) { p.MaxReplications = 7 },
	} {
		other := &Env{Params: env.Params, Derived: env.Derived}
		set(&other.Params)
		if k, _ := other.pointKey(base); k == baseKey {
			t.Errorf("changing Params.%s leaves the point key unchanged", name)
		}
	}
}

// progressRuns counts the per-point progress lines, one per run.
func progressRuns(out string) int {
	return strings.Count(out, ": util ")
}

// TestCurveSetRunsEachDistinctPointOnce checks the collapse on a set shaped
// like Fig. 3: SC under two labels and GS for both queue balances are one
// run configuration each, so their points run once, and every curve still
// gets exactly what its configuration returns when run alone. A second
// sweep of the same curves on the same Env runs nothing.
func TestCurveSetRunsEachDistinctPointOnce(t *testing.T) {
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.2, 0.4} // nothing saturates, so no run is cut short
	p.Progress = &buf
	env := NewEnv(p)
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	sc := CurveSpec{Policy: "SC", ClusterSizes: SingleClusterSizes, Spec: env.SCSpec(env.Derived.Sizes128)}
	specs := []CurveSpec{sc, sc, // relabelled below
		{Label: "GS balanced", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "GS unbalanced", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS balanced", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS unbalanced", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec,
			QueueWeights: core.Unbalanced(len(MulticlusterSizes))},
	}
	specs[0].Label, specs[1].Label = "SC limit=16", "SC limit=24"
	const distinct = 4 // SC, GS, LS balanced, LS unbalanced
	sets, err := env.CurveSet(specs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := progressRuns(buf.String()), distinct*len(p.Utilizations); got != want {
		t.Errorf("%d runs for %d distinct points:\n%s", got, want, buf.String())
	}
	for ci, cs := range specs {
		if len(sets[ci]) != len(p.Utilizations) {
			t.Fatalf("%s: %d points, want %d", cs.Label, len(sets[ci]), len(p.Utilizations))
		}
		for i, u := range p.Utilizations {
			want, err := env.runPoint(env.pointConfig(cs, u))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", sets[ci][i]), fmt.Sprintf("%+v", want); a != b {
				t.Errorf("%s point %d differs:\n  sweep: %s\n  alone: %s", cs.Label, i, a, b)
			}
		}
	}
	firstSweep := fmt.Sprintf("%+v", sets)
	// Curves that share a run share no slices.
	sets[0][0].ResponseBySizeClass[0] = -1
	if sets[1][0].ResponseBySizeClass[0] == -1 {
		t.Error("collapsed curves share a Result's slices")
	}

	buf.Reset()
	again, err := env.CurveSet(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := progressRuns(buf.String()); n != 0 {
		t.Errorf("the second sweep on the same Env ran %d points:\n%s", n, buf.String())
	}
	if a, b := fmt.Sprintf("%+v", again), firstSweep; a != b {
		t.Errorf("the second sweep differs from the first:\n  again: %s\n  first: %s", a, b)
	}
}

// TestFinishedSaturatedPointEndsLaterCurve checks that a saturated point
// this Env already ran ends a later sweep's curve before dispatch: the
// repeat, on a grid that extends past the saturated point, runs nothing
// and returns the same truncated curve.
func TestFinishedSaturatedPointEndsLaterCurve(t *testing.T) {
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9} // 0.9 saturates GS
	p.Progress = &buf
	env := NewEnv(p)
	cs := CurveSpec{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes,
		Spec: env.MultiSpec(16, env.Derived.Sizes128)}
	first, err := env.CurveSet([]CurveSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(first[0]); n != 2 || !first[0][1].Saturated {
		t.Fatalf("GS should stop at its saturated second point, got %d points", n)
	}
	buf.Reset()
	env.Utilizations = []float64{0.3, 0.9, 0.95}
	cs.Label = "GS again"
	again, err := env.CurveSet([]CurveSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	if n := progressRuns(buf.String()); n != 0 {
		t.Errorf("the repeat ran %d points:\n%s", n, buf.String())
	}
	if a, b := fmt.Sprintf("%+v", again), fmt.Sprintf("%+v", first); a != b {
		t.Errorf("the repeat differs:\n  again: %s\n  first: %s", a, b)
	}
}

// TestRegretAfterFig5 checks that decision tracing bypasses the finished
// points: Fig. 5 runs the regret grid's points without tracing, and a
// Regret on the same Env must still run them traced and report the same
// nonzero regret as on a fresh Env.
func TestRegretAfterFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	regretCSV := func(first ...string) string {
		t.Helper()
		p := tinyParams()
		p.Utilizations = []float64{0.3, 0.6}
		p.DataDir = t.TempDir()
		env := NewEnv(p)
		for _, name := range append(first, "regret") {
			if _, err := Run(name, env); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(filepath.Join(p.DataDir, "regret.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	after, fresh := regretCSV("fig5"), regretCSV()
	if after != fresh {
		t.Errorf("regret after fig5 differs from regret alone:\n--- after fig5 ---\n%s--- alone ---\n%s", after, fresh)
	}
	nonzero := false
	for _, line := range strings.Split(strings.TrimSpace(after), "\n")[1:] {
		y, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ',')+1:], 64)
		if err != nil {
			t.Fatalf("malformed regret.csv line %q", line)
		}
		nonzero = nonzero || y > 0
	}
	if !nonzero {
		t.Errorf("regret after fig5 reports no regret at all:\n%s", after)
	}
}
