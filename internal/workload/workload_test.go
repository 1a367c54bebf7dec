package workload

import (
	"math"
	"testing"
	"testing/quick"

	"coalloc/internal/dastrace"
	"coalloc/internal/dist"
	"coalloc/internal/rng"
)

func TestSplitExamples(t *testing.T) {
	cases := []struct {
		total, limit, clusters int
		want                   []int
	}{
		// The paper's worked example: a job of size 64.
		{64, 16, 4, []int{16, 16, 16, 16}},
		{64, 24, 4, []int{22, 21, 21}},
		{64, 32, 4, []int{32, 32}},
		// Small jobs stay single-component.
		{1, 16, 4, []int{1}},
		{16, 16, 4, []int{16}},
		{17, 16, 4, []int{9, 8}},
		// The cluster cap binds: size 128 at limit 16 still gets only 4
		// components (of 32).
		{128, 16, 4, []int{32, 32, 32, 32}},
		{128, 32, 4, []int{32, 32, 32, 32}},
		{100, 32, 4, []int{25, 25, 25, 25}},
		{65, 32, 4, []int{22, 22, 21}}, // 2x32 cannot hold 65, so 3 components
		{96, 32, 4, []int{32, 32, 32}},
		// Single-cluster system: everything is a total request.
		{64, 128, 1, []int{64}},
		{128, 16, 1, []int{128}},
	}
	for _, c := range cases {
		got := Split(c.total, c.limit, c.clusters)
		if len(got) != len(c.want) {
			t.Errorf("Split(%d,%d,%d) = %v, want %v", c.total, c.limit, c.clusters, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Split(%d,%d,%d) = %v, want %v", c.total, c.limit, c.clusters, got, c.want)
				break
			}
		}
	}
}

// TestSplitProperties checks the splitting invariants for arbitrary inputs:
// the components sum to the total, there are at most `clusters` of them,
// they differ by at most one, are nonincreasing, and respect the limit
// whenever the cluster cap does not bind.
func TestSplitProperties(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		total := 1 + r.Intn(128)
		limit := 1 + r.Intn(64)
		clusters := 1 + r.Intn(8)
		comps := Split(total, limit, clusters)
		if len(comps) < 1 || len(comps) > clusters {
			return false
		}
		if len(comps) != NumComponents(total, limit, clusters) {
			return false
		}
		sum := 0
		for i, c := range comps {
			if c <= 0 {
				return false
			}
			sum += c
			if i > 0 && comps[i] > comps[i-1] {
				return false // not nonincreasing
			}
		}
		if sum != total {
			return false
		}
		if comps[0]-comps[len(comps)-1] > 1 {
			return false // not as equal as possible
		}
		capBinds := (total+limit-1)/limit > clusters
		if !capBinds && comps[0] > limit {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitPanics(t *testing.T) {
	for _, c := range [][3]int{{0, 16, 4}, {10, 0, 4}, {10, 16, 0}} {
		func() {
			defer func() { recover() }()
			Split(c[0], c[1], c[2])
			t.Errorf("Split(%v) did not panic", c)
		}()
	}
}

func TestJobAccessors(t *testing.T) {
	j := &Job{
		Components:  []int{8, 8},
		ArrivalTime: 10,
		StartTime:   15,
		FinishTime:  40,
	}
	if !j.Multi() {
		t.Error("two-component job should be Multi")
	}
	if j.ResponseTime() != 30 {
		t.Errorf("response %g", j.ResponseTime())
	}
	if (&Job{Components: []int{4}}).Multi() {
		t.Error("one-component job should not be Multi")
	}
}

func deriveTest(t *testing.T) Derived {
	t.Helper()
	return Derive(dastrace.Default())
}

func TestDeriveDistributions(t *testing.T) {
	d := deriveTest(t)
	if d.Sizes128.Max() != 128 || d.Sizes64.Max() != 64 {
		t.Errorf("size maxima %d/%d", d.Sizes128.Max(), d.Sizes64.Max())
	}
	if d.Service.Max() > ServiceCut {
		t.Errorf("service distribution not cut at %g: max %g", ServiceCut, d.Service.Max())
	}
	if d.ExcludedBy64 <= 0 || d.ExcludedBy64 > 0.05 {
		t.Errorf("cut at 64 excludes %.3f of jobs, want a small positive fraction", d.ExcludedBy64)
	}
	if d.Sizes64.Mean() >= d.Sizes128.Mean() {
		t.Error("cutting the largest jobs must lower the mean size")
	}
}

func TestDeriveEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Derive(nil) did not panic")
		}
	}()
	Derive(nil)
}

func specFor(t *testing.T, limit int) Spec {
	t.Helper()
	d := deriveTest(t)
	return Spec{
		Sizes:           d.Sizes128,
		Service:         d.Service,
		ComponentLimit:  limit,
		Clusters:        4,
		ExtensionFactor: DefaultExtensionFactor,
	}
}

// TestComponentCountsMatchPaperTable2 is the headline workload validation:
// the component-count fractions must reproduce the paper's Table 2.
func TestComponentCountsMatchPaperTable2(t *testing.T) {
	want := map[int][4]float64{
		16: {0.513, 0.267, 0.009, 0.211},
		24: {0.738, 0.051, 0.194, 0.017},
		32: {0.780, 0.200, 0.003, 0.017},
	}
	for limit, row := range want {
		spec := specFor(t, limit)
		fr := spec.ComponentCountFractions()
		if len(fr) != 4 {
			t.Fatalf("limit %d: %d component-count entries", limit, len(fr))
		}
		var sum float64
		for i, got := range fr {
			sum += got
			if math.Abs(got-row[i]) > 0.02 {
				t.Errorf("limit %d, %d components: %.3f, paper %.3f", limit, i+1, got, row[i])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("limit %d: fractions sum to %g", limit, sum)
		}
	}
}

func TestMultiComponentFraction(t *testing.T) {
	spec := specFor(t, 16)
	multi := spec.MultiComponentFraction()
	fr := spec.ComponentCountFractions()
	if math.Abs(multi-(1-fr[0])) > 1e-9 {
		t.Errorf("multi fraction %g inconsistent with 1 - single %g", multi, 1-fr[0])
	}
	// The paper: ~48.7% multi-component jobs at limit 16.
	if math.Abs(multi-0.487) > 0.02 {
		t.Errorf("multi fraction at limit 16 = %.3f, paper ~0.487", multi)
	}
}

func TestGrossNetRatio(t *testing.T) {
	// Ratios shrink as the limit grows and sit in (1, 1.25).
	var prev float64 = 2
	for _, limit := range []int{16, 24, 32} {
		spec := specFor(t, limit)
		r := spec.GrossNetRatio()
		if r <= 1 || r >= DefaultExtensionFactor {
			t.Errorf("limit %d: ratio %g outside (1, 1.25)", limit, r)
		}
		if r >= prev {
			t.Errorf("ratio did not shrink with the limit: %g then %g", prev, r)
		}
		prev = r
	}
	// With extension factor 1 the ratio is exactly 1.
	spec := specFor(t, 16)
	spec.ExtensionFactor = 1
	if got := spec.GrossNetRatio(); math.Abs(got-1) > 1e-12 {
		t.Errorf("ratio with ext=1 is %g", got)
	}
}

func TestSampleJobInvariants(t *testing.T) {
	spec := specFor(t, 16)
	sizeStream := rng.NewStream(1)
	svcStream := rng.NewStream(2)
	for i := 0; i < 5000; i++ {
		j := spec.Sample(sizeStream, svcStream)
		sum := 0
		for _, c := range j.Components {
			sum += c
		}
		if sum != j.TotalSize {
			t.Fatalf("components %v sum to %d, total %d", j.Components, sum, j.TotalSize)
		}
		if len(j.Components) > spec.Clusters {
			t.Fatalf("%d components for %d clusters", len(j.Components), spec.Clusters)
		}
		if j.ServiceTime <= 0 || j.ServiceTime > ServiceCut {
			t.Fatalf("service %g outside (0, %g]", j.ServiceTime, ServiceCut)
		}
		wantExt := j.ServiceTime
		if j.Multi() {
			wantExt *= spec.ExtensionFactor
		}
		if math.Abs(j.ExtendedServiceTime-wantExt) > 1e-12 {
			t.Fatalf("extended %g, want %g", j.ExtendedServiceTime, wantExt)
		}
	}
}

func TestArrivalRateInversion(t *testing.T) {
	spec := specFor(t, 16)
	const procs = 128
	for _, util := range []float64{0.1, 0.5, 0.9} {
		lambda := spec.ArrivalRateForGrossUtilization(util, procs)
		back := lambda * spec.MeanGrossWork() / procs
		if math.Abs(back-util) > 1e-9 {
			t.Errorf("utilization %g round-trips to %g", util, back)
		}
	}
	func() {
		defer func() { recover() }()
		spec.ArrivalRateForGrossUtilization(0, procs)
		t.Error("zero utilization did not panic")
	}()
}

func TestMeanWorkRelations(t *testing.T) {
	spec := specFor(t, 16)
	gross, net := spec.MeanGrossWork(), spec.Sizes.Mean()*spec.Service.Mean()
	if gross <= net {
		t.Errorf("gross work %g should exceed net %g", gross, net)
	}
	if math.Abs(gross/net-spec.GrossNetRatio()) > 1e-9 {
		t.Errorf("gross/net work ratio %g != utilization ratio %g",
			gross/net, spec.GrossNetRatio())
	}
}

func TestSpecValidate(t *testing.T) {
	d := deriveTest(t)
	good := Spec{Sizes: d.Sizes128, Service: d.Service, ComponentLimit: 16, Clusters: 4, ExtensionFactor: 1.25}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Service: d.Service, ComponentLimit: 16, Clusters: 4, ExtensionFactor: 1.25},
		{Sizes: d.Sizes128, ComponentLimit: 16, Clusters: 4, ExtensionFactor: 1.25},
		{Sizes: d.Sizes128, Service: d.Service, Clusters: 4, ExtensionFactor: 1.25},
		{Sizes: d.Sizes128, Service: d.Service, ComponentLimit: 16, ExtensionFactor: 1.25},
		{Sizes: d.Sizes128, Service: d.Service, ComponentLimit: 16, Clusters: 4, ExtensionFactor: 0.5},
		{Sizes: d.Sizes128, Service: d.Service, ComponentLimit: 16, Clusters: 4, ExtensionFactor: math.NaN()},
		{Sizes: d.Sizes128, Service: d.Service, ComponentLimit: 16, Clusters: 4, ExtensionFactor: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec %d accepted", i)
		}
	}
}

func TestSingleClusterSpecNeverExtends(t *testing.T) {
	d := deriveTest(t)
	spec := Spec{
		Sizes:           d.Sizes128,
		Service:         d.Service,
		ComponentLimit:  d.Sizes128.Max(),
		Clusters:        1,
		ExtensionFactor: DefaultExtensionFactor,
	}
	if got := spec.MultiComponentFraction(); got != 0 {
		t.Errorf("single-cluster spec has %g multi-component jobs", got)
	}
	if got := spec.GrossNetRatio(); math.Abs(got-1) > 1e-12 {
		t.Errorf("single-cluster gross/net ratio %g, want 1", got)
	}
	sizeStream, svcStream := rng.NewStream(1), rng.NewStream(2)
	for i := 0; i < 1000; i++ {
		if j := spec.Sample(sizeStream, svcStream); j.Multi() {
			t.Fatal("single-cluster spec produced a multi-component job")
		}
	}
}

func TestExponentialServiceSpec(t *testing.T) {
	// Spec works with any Continuous service distribution, not just the
	// trace-derived one.
	d := deriveTest(t)
	spec := Spec{
		Sizes:           d.Sizes128,
		Service:         dist.NewExponential(1.0 / 150),
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: 1.25,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := spec.GrossNetRatio() * d.Sizes128.Mean() * 150; math.Abs(spec.MeanGrossWork()-want) > 1e-6 {
		t.Errorf("mean gross work %g, want %g", spec.MeanGrossWork(), want)
	}
}
