package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coalloc/internal/analysis"
	"coalloc/internal/dist"
	"coalloc/internal/faults"
	"coalloc/internal/workload"
)

func testSpec(t *testing.T, limit, clusters int) workload.Spec {
	t.Helper()
	der := workload.DeriveDefault()
	sizes := der.Sizes128
	if clusters == 1 {
		return workload.Spec{
			Sizes:           sizes,
			Service:         der.Service,
			ComponentLimit:  sizes.Max(),
			Clusters:        1,
			ExtensionFactor: workload.DefaultExtensionFactor,
		}
	}
	return workload.Spec{
		Sizes:           sizes,
		Service:         der.Service,
		ComponentLimit:  limit,
		Clusters:        clusters,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
}

// TestRunAtUtilizationRejectsBadInput: the arrival rate is derived from
// the spec and the utilization, so bad values of either come back as an
// error instead of a panic inside the derivation.
func TestRunAtUtilizationRejectsBadInput(t *testing.T) {
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "LS",
		WarmupJobs:   10,
		MeasureJobs:  100,
	}
	noLimit := base
	noLimit.Spec.ComponentLimit = 0
	noClusters := base
	noClusters.ClusterSizes = []int{0, 0, 0, 0}
	for _, c := range []struct {
		name string
		cfg  Config
		util float64
		want string
	}{
		{"zero limit", noLimit, 0.5, "component limit"},
		{"zero util", base, 0, "utilization"},
		{"negative util", base, -0.3, "utilization"},
		{"NaN util", base, math.NaN(), "utilization"},
		{"infinite util", base, math.Inf(1), "utilization"},
		{"no processors", noClusters, 0.5, "processors"},
	} {
		_, err := RunAtUtilization(c.cfg, c.util)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  2000,
	}
	cfg.Seed = 1
	a, err := RunAtUtilization(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := RunAtUtilization(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse == b.MeanResponse {
		t.Error("different seeds produced identical mean responses")
	}
}

// TestWorkloadIdenticalAcrossPolicies: the common-random-numbers design —
// the job stream depends only on the seed, not on the policy.
func TestWorkloadIdenticalAcrossPolicies(t *testing.T) {
	get := func(policy string) Result {
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         testSpec(t, 16, 4),
			Policy:       policy,
			WarmupJobs:   100,
			MeasureJobs:  1000,
			Seed:         5,
		}
		res, err := RunAtUtilization(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := get("GS"), get("LS")
	// Same offered load and (nearly) the same measured utilization: both
	// policies process the same jobs at a stable load.
	if a.OfferedGross != b.OfferedGross {
		t.Errorf("offered loads differ: %g vs %g", a.OfferedGross, b.OfferedGross)
	}
	if math.Abs(a.GrossUtilization-b.GrossUtilization) > 0.02 {
		t.Errorf("measured utilizations differ: %g vs %g", a.GrossUtilization, b.GrossUtilization)
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  4000,
		Seed:         3,
	}
	res, err := RunAtUtilization(cfg, 0.95) // far beyond GS's ~0.62 maximum
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Errorf("95%% offered load not flagged as saturated (queue %d)", res.FinalQueue)
	}
	if res.GrossUtilization >= 0.9 {
		t.Errorf("measured utilization %.3f should fall short of offered 0.95", res.GrossUtilization)
	}
}

func TestStableRunNotSaturated(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "LS",
		WarmupJobs:   500,
		MeasureJobs:  5000,
		Seed:         3,
	}
	res, err := RunAtUtilization(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("30% load flagged as saturated")
	}
	if math.Abs(res.GrossUtilization-0.3) > 0.05 {
		t.Errorf("measured %.3f at offered 0.3", res.GrossUtilization)
	}
}

func TestMeasuredUtilizationTracksOffered(t *testing.T) {
	for _, util := range []float64{0.2, 0.4, 0.5} {
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         testSpec(t, 24, 4),
			Policy:       "GS",
			WarmupJobs:   500,
			MeasureJobs:  8000,
			Seed:         9,
		}
		res, err := RunAtUtilization(cfg, util)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.GrossUtilization-util) > 0.04 {
			t.Errorf("offered %.2f, measured %.3f", util, res.GrossUtilization)
		}
		wantNet := res.GrossUtilization / cfg.Spec.GrossNetRatio()
		if math.Abs(res.NetUtilization-wantNet) > 0.03 {
			t.Errorf("net %.3f, want ~%.3f (gross/ratio)", res.NetUtilization, wantNet)
		}
	}
}

func TestResponseBreakdownByQueueType(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "LP",
		WarmupJobs:   300,
		MeasureJobs:  4000,
		Seed:         13,
	}
	res, err := RunAtUtilization(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MeanResponseLocal) || math.IsNaN(res.MeanResponseGlobal) {
		t.Fatal("LP must report both local and global means")
	}
	// The total mean lies between the two partial means.
	lo := math.Min(res.MeanResponseLocal, res.MeanResponseGlobal)
	hi := math.Max(res.MeanResponseLocal, res.MeanResponseGlobal)
	if res.MeanResponse < lo || res.MeanResponse > hi {
		t.Errorf("total %g outside [%g, %g]", res.MeanResponse, lo, hi)
	}

	// GS reports only a global mean; LS only a local one.
	cfg.Policy = "GS"
	gs, err := RunAtUtilization(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(gs.MeanResponseLocal) || math.IsNaN(gs.MeanResponseGlobal) {
		t.Error("GS queue-type breakdown")
	}
	cfg.Policy = "LS"
	ls, err := RunAtUtilization(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ls.MeanResponseLocal) || !math.IsNaN(ls.MeanResponseGlobal) {
		t.Error("LS queue-type breakdown")
	}
}

func TestRunReplicationsMerges(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  2000,
		Seed:         1,
		ArrivalRate:  testSpecRate(t, 0.4),
	}
	res, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3*2000 {
		t.Errorf("merged jobs %d", res.Jobs)
	}
	if math.IsInf(res.RespHalfWidth, 1) || res.RespHalfWidth <= 0 {
		t.Errorf("half-width %g", res.RespHalfWidth)
	}
	single, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replication mean should be near a single run's mean.
	if math.Abs(res.MeanResponse-single.MeanResponse)/single.MeanResponse > 0.5 {
		t.Errorf("replication mean %g vs single %g", res.MeanResponse, single.MeanResponse)
	}
	// The merged result carries every derived metric.
	if res.MeanJobsInSystem <= 0 || res.Throughput <= 0 {
		t.Errorf("merged L=%g, throughput=%g", res.MeanJobsInSystem, res.Throughput)
	}
	if len(res.PerClusterUtilization) != 4 {
		t.Errorf("merged per-cluster utilizations %v", res.PerClusterUtilization)
	}
	if len(res.ResponseBySizeClass) != len(SizeClassBounds) {
		t.Errorf("merged size classes %v", res.ResponseBySizeClass)
	}
	for ci, v := range res.ResponseBySizeClass {
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("size class %s mean %g", SizeClassLabel(ci), v)
		}
	}
}

// TestRunReplicationsSingleIsRun: one replication is the run itself, so it
// keeps the run's finite batch-means half-width instead of an
// across-replication interval over n = 1 (+Inf).
func TestRunReplicationsSingleIsRun(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "LS",
		WarmupJobs:   200,
		MeasureJobs:  2000,
		Seed:         1,
		ArrivalRate:  testSpecRate(t, 0.6),
	}
	one, err := RunReplications(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(run.RespHalfWidth, 0) || !(run.RespHalfWidth > 0) {
		t.Fatalf("Run half-width %g, want positive and finite", run.RespHalfWidth)
	}
	if one.RespHalfWidth != run.RespHalfWidth {
		t.Errorf("RunReplications(cfg, 1) half-width %g, want Run's %g", one.RespHalfWidth, run.RespHalfWidth)
	}
	if fmt.Sprintf("%v", one) != fmt.Sprintf("%v", run) {
		t.Errorf("RunReplications(cfg, 1) differs from Run(cfg):\n%v\n%v", one, run)
	}
}

func TestSizeClassHelpers(t *testing.T) {
	cases := map[int]int{1: 0, 8: 0, 9: 1, 16: 1, 17: 2, 32: 2, 33: 3, 64: 3, 65: 4, 128: 4, 500: 4}
	for size, want := range cases {
		if got := SizeClass(size); got != want {
			t.Errorf("SizeClass(%d) = %d, want %d", size, got, want)
		}
	}
	if SizeClassLabel(0) != "1-8" || SizeClassLabel(4) != "65-128" {
		t.Errorf("labels %q %q", SizeClassLabel(0), SizeClassLabel(4))
	}
}

func testSpecRate(t *testing.T, util float64) float64 {
	t.Helper()
	spec := testSpec(t, 16, 4)
	return spec.ArrivalRateForGrossUtilization(util, 128)
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		ArrivalRate:  0.01,
	}
	good.applyDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.ClusterSizes = nil },
		func(c *Config) { c.Policy = "XX" },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.QueueWeights = []float64{1, 2} },
		func(c *Config) { c.Spec.Clusters = 2 },
		func(c *Config) { c.MeasureJobs = -1 },
		// A non-finite extension factor would schedule a departure at a
		// non-finite time; a negative or NaN MTBF would run fault-free.
		func(c *Config) { c.Spec.ExtensionFactor = math.NaN() },
		func(c *Config) { c.Spec.ExtensionFactor = math.Inf(1) },
		func(c *Config) { c.Faults = &faults.Spec{MTBF: -5, MTTR: 900} },
		func(c *Config) { c.Faults = &faults.Spec{MTBF: math.NaN(), MTTR: 900} },
	}
	for i, f := range mutate {
		c := good
		f(&c)
		c.applyDefaults()
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// SC on multiple clusters is invalid.
	c := good
	c.Policy = "SC"
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "single cluster") {
		t.Errorf("SC on 4 clusters: %v", err)
	}
}

func TestBalancedUnbalancedWeights(t *testing.T) {
	b := Balanced(4)
	for _, w := range b {
		if w != 1 {
			t.Errorf("balanced weights %v", b)
		}
	}
	u := Unbalanced(4)
	if u[0] != 2 || u[1] != 1 || u[2] != 1 || u[3] != 1 {
		t.Errorf("unbalanced weights %v", u)
	}
}

func TestUnbalancedRoutingShiftsLoad(t *testing.T) {
	// With unbalanced routing, LS saturates earlier (the paper's
	// Sect. 3.1.2); at a moderately high load the unbalanced case must
	// show a clearly higher mean response.
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "LS",
		WarmupJobs:   500,
		MeasureJobs:  10000,
		Seed:         21,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.62, 128),
	}
	bal, err := RunReplications(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	unb := base
	unb.QueueWeights = Unbalanced(4)
	unbRes, err := RunReplications(unb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if unbRes.MeanResponse <= bal.MeanResponse {
		t.Errorf("unbalanced %g should exceed balanced %g near saturation (0.62)",
			unbRes.MeanResponse, bal.MeanResponse)
	}
}

func TestMMCAgainstErlangC(t *testing.T) {
	// Four processors in one cluster, unit-size jobs, exponential
	// service: an M/M/4 queue. Compare with the Erlang-C formula.
	const mu, rho, c = 1.0, 0.7, 4
	spec := workload.Spec{
		Sizes:           dist.NewEmpiricalInt([]int{1}, []float64{1}),
		Service:         dist.NewExponential(mu),
		ComponentLimit:  1,
		Clusters:        1,
		ExtensionFactor: 1,
	}
	cfg := Config{
		ClusterSizes: []int{c},
		Spec:         spec,
		Policy:       "SC",
		ArrivalRate:  rho * mu * c,
		WarmupJobs:   5000,
		MeasureJobs:  80000,
		Seed:         2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.MMcMeanResponse(rho*mu*c, mu, c)
	if math.Abs(res.MeanResponse-want)/want > 0.08 {
		t.Errorf("M/M/4 mean response %.4f, want %.4f", res.MeanResponse, want)
	}
}

func TestGSAndSCIdenticalOnOneCluster(t *testing.T) {
	// SC is GS on a single cluster; with the same seed they must produce
	// byte-identical results.
	spec := testSpec(t, 16, 1)
	cfg := Config{
		ClusterSizes: []int{128},
		Spec:         spec,
		WarmupJobs:   200,
		MeasureJobs:  3000,
		Seed:         4,
	}
	cfg.Policy = "GS"
	gs, err := RunAtUtilization(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = "SC"
	sc, err := RunAtUtilization(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gs.MeanResponse != sc.MeanResponse || gs.GrossUtilization != sc.GrossUtilization {
		t.Errorf("GS %v vs SC %v on one cluster", gs.MeanResponse, sc.MeanResponse)
	}
}

func TestBacklogValidation(t *testing.T) {
	spec := testSpec(t, 16, 4)
	nanExt, infExt := spec, spec
	nanExt.ExtensionFactor, infExt.ExtensionFactor = math.NaN(), math.Inf(1)
	bad := []BacklogConfig{
		{Spec: spec, Policy: "GS"},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "XX"},
		{ClusterSizes: []int{32, 32}, Spec: spec, Policy: "GS"},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", Backlog: -1},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "LS", QueueWeights: []float64{1, 1}},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "LS", QueueWeights: []float64{1, -1, 1, 1}},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", Lookahead: -1},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", MeasureTime: -100},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", WarmupTime: -1},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", WarmupTime: math.NaN()},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS", MeasureTime: math.Inf(1)},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: nanExt, Policy: "GS"},
		{ClusterSizes: []int{32, 32, 32, 32}, Spec: infExt, Policy: "GS"},
	}
	for i, cfg := range bad {
		if _, err := RunBacklog(cfg); err == nil {
			t.Errorf("bad backlog config %d accepted", i)
		}
	}
}

func TestBacklogOrderingAcrossLimits(t *testing.T) {
	// The paper's Table 3 shape: limit 24 yields the lowest maximal
	// utilization (size-64 jobs split (22,21,21) pack poorly).
	max := map[int]float64{}
	for _, limit := range []int{16, 24, 32} {
		res, err := RunBacklog(BacklogConfig{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         testSpec(t, limit, 4),
			Policy:       "GS",
			WarmupTime:   20000,
			MeasureTime:  200000,
			Seed:         8,
		})
		if err != nil {
			t.Fatal(err)
		}
		max[limit] = res.MaxGrossUtilization
	}
	if !(max[24] < max[16] && max[24] < max[32]) {
		t.Errorf("limit 24 should be worst: %v", max)
	}
}

func TestPerClusterUtilization(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "LS",
		WarmupJobs:   500,
		MeasureJobs:  8000,
		Seed:         33,
	}
	bal, err := RunAtUtilization(base, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bal.PerClusterUtilization) != 4 {
		t.Fatalf("per-cluster utilizations %v", bal.PerClusterUtilization)
	}
	var sum float64
	for _, u := range bal.PerClusterUtilization {
		if u < 0 || u > 1 {
			t.Errorf("cluster utilization %g outside [0,1]", u)
		}
		sum += u
	}
	// The mean of per-cluster utilizations equals the system utilization
	// (equal cluster sizes).
	if math.Abs(sum/4-bal.GrossUtilization) > 0.01 {
		t.Errorf("per-cluster mean %.3f vs system %.3f", sum/4, bal.GrossUtilization)
	}

	// Unbalanced routing must visibly skew the per-cluster loads.
	unb := base
	unb.QueueWeights = Unbalanced(4)
	unbRes, err := RunAtUtilization(unb, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if unbRes.UtilizationImbalance <= bal.UtilizationImbalance {
		t.Errorf("unbalanced imbalance %.3f not above balanced %.3f",
			unbRes.UtilizationImbalance, bal.UtilizationImbalance)
	}
	// Queue 0 receives 40% of the jobs: its cluster runs hottest.
	hottest := 0
	for c, u := range unbRes.PerClusterUtilization {
		if u > unbRes.PerClusterUtilization[hottest] {
			hottest = c
		}
	}
	if hottest != 0 {
		t.Errorf("hottest cluster %d, want 0 (the 40%% queue)", hottest)
	}
}

func TestConservativeBetweenFCFSAndEASY(t *testing.T) {
	// At a load beyond plain GS saturation, conservative backfilling
	// should be stable like EASY, while (weakly) more conservative.
	spec := testSpec(t, 16, 4)
	run := func(policy string) Result {
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         spec,
			Policy:       policy,
			WarmupJobs:   500,
			MeasureJobs:  8000,
			Seed:         19,
		}
		res, err := RunAtUtilization(cfg, 0.65)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cons, easy := run("GS-CONS"), run("GS-EASY")
	if cons.Saturated {
		t.Error("GS-CONS saturated at 0.65")
	}
	if easy.MeanResponse > cons.MeanResponse*1.5 {
		t.Errorf("EASY %g far above conservative %g — unexpected ordering",
			easy.MeanResponse, cons.MeanResponse)
	}
	t.Logf("GS-CONS %.0f s, GS-EASY %.0f s at 0.65", cons.MeanResponse, easy.MeanResponse)
}

func TestBuildPolicyNames(t *testing.T) {
	// Every registered name builds on a suitable system; unknown names fail.
	multi := []string{"GS", "GS-EASY", "GS-CONS", "GS-SPF", "LS", "LS-sorted", "LP"}
	for _, name := range multi {
		if _, err := buildPolicy(name, 4, 0, 0); err != nil {
			t.Errorf("buildPolicy(%s, 4): %v", name, err)
		}
	}
	for _, name := range []string{"SC", "SC-EASY", "SC-CONS"} {
		if _, err := buildPolicy(name, 1, 0, 0); err != nil {
			t.Errorf("buildPolicy(%s, 1): %v", name, err)
		}
		if _, err := buildPolicy(name, 4, 0, 0); err == nil {
			t.Errorf("buildPolicy(%s, 4) accepted a multicluster", name)
		}
	}
	if _, err := buildPolicy("NOPE", 4, 0, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
