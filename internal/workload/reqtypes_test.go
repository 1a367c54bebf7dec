package workload

import (
	"math"
	"testing"
	"testing/quick"

	"coalloc/internal/rng"
)

func TestRequestTypeString(t *testing.T) {
	cases := map[RequestType]string{
		Unordered: "unordered", Ordered: "ordered", Flexible: "flexible", Total: "total",
	}
	for rt, want := range cases {
		if rt.String() != want {
			t.Errorf("%d.String() = %q", int(rt), rt.String())
		}
	}
	if RequestType(99).String() == "" {
		t.Error("unknown type should render")
	}
}

func streams() (a, b, c *rng.Stream) {
	return rng.NewStream(1), rng.NewStream(2), rng.NewStream(3)
}

func TestSampleTypedUnorderedMatchesSample(t *testing.T) {
	spec := specFor(t, 16)
	s1, s2, s3 := streams()
	r1, r2 := rng.NewStream(1), rng.NewStream(2)
	for i := 0; i < 100; i++ {
		a := spec.SampleTypedInto(nil, Unordered, s1, s2, s3)
		b := spec.Sample(r1, r2)
		if a.TotalSize != b.TotalSize || a.ServiceTime != b.ServiceTime {
			t.Fatal("unordered SampleTypedInto diverges from Sample")
		}
		if a.Type != Unordered || a.OrderedPlacement != nil {
			t.Fatal("unordered job carries ordered metadata")
		}
	}
}

func TestSampleTypedOrdered(t *testing.T) {
	spec := specFor(t, 16)
	s1, s2, s3 := streams()
	for i := 0; i < 2000; i++ {
		j := spec.SampleTypedInto(nil, Ordered, s1, s2, s3)
		if j.Type != Ordered {
			t.Fatal("type not set")
		}
		if len(j.OrderedPlacement) != len(j.Components) {
			t.Fatalf("placement %v for components %v", j.OrderedPlacement, j.Components)
		}
		seen := map[int]bool{}
		for _, c := range j.OrderedPlacement {
			if c < 0 || c >= spec.Clusters {
				t.Fatalf("cluster %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("duplicate cluster in %v", j.OrderedPlacement)
			}
			seen[c] = true
		}
	}
}

func TestSampleTypedOrderedPlacementUniform(t *testing.T) {
	spec := specFor(t, 16)
	s1, s2, s3 := streams()
	counts := make([]int, spec.Clusters)
	n := 0
	for i := 0; i < 20000; i++ {
		j := spec.SampleTypedInto(nil, Ordered, s1, s2, s3)
		if len(j.Components) == 1 {
			counts[j.OrderedPlacement[0]]++
			n++
		}
	}
	for c, cnt := range counts {
		frac := float64(cnt) / float64(n)
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("single components assigned to cluster %d with frequency %.3f", c, frac)
		}
	}
}

func TestSampleTypedFlexibleAndTotal(t *testing.T) {
	spec := specFor(t, 16)
	s1, s2, s3 := streams()
	for i := 0; i < 1000; i++ {
		f := spec.SampleTypedInto(nil, Flexible, s1, s2, s3)
		if f.Type != Flexible || len(f.Components) != 1 || f.Components[0] != f.TotalSize {
			t.Fatalf("flexible job %+v", f)
		}
		// Provisional extension: large jobs marked extended.
		if f.TotalSize > spec.ComponentLimit && f.ExtendedServiceTime <= f.ServiceTime {
			t.Fatalf("large flexible job not provisionally extended: %+v", f)
		}
		tt := spec.SampleTypedInto(nil, Total, s1, s2, s3)
		if tt.Type != Total || len(tt.Components) != 1 {
			t.Fatalf("total job %+v", tt)
		}
		if tt.ExtendedServiceTime != tt.ServiceTime {
			t.Fatal("total requests never pay the extension factor")
		}
	}
}

func TestSampleTypedUnknownPanics(t *testing.T) {
	spec := specFor(t, 16)
	s1, s2, s3 := streams()
	defer func() {
		if recover() == nil {
			t.Error("unknown request type did not panic")
		}
	}()
	spec.SampleTypedInto(nil, RequestType(42), s1, s2, s3)
}

func TestFinalizeFlexible(t *testing.T) {
	j := &Job{Type: Flexible, TotalSize: 40, Components: []int{40}, ServiceTime: 100, ExtendedServiceTime: 125}
	j.FinalizeFlexible([]int{20, 20}, 1.25)
	if j.ExtendedServiceTime != 125 {
		t.Errorf("two-cluster split extended %g, want 125", j.ExtendedServiceTime)
	}
	j2 := &Job{Type: Flexible, TotalSize: 40, Components: []int{40}, ServiceTime: 100, ExtendedServiceTime: 125}
	j2.FinalizeFlexible([]int{40}, 1.25)
	if j2.ExtendedServiceTime != 100 {
		t.Errorf("single-cluster split extended %g, want 100 (no extension)", j2.ExtendedServiceTime)
	}
}

func TestFinalizeFlexiblePanics(t *testing.T) {
	func() {
		defer func() { recover() }()
		j := &Job{Type: Unordered, TotalSize: 40, ServiceTime: 1}
		j.FinalizeFlexible([]int{40}, 1.25)
		t.Error("FinalizeFlexible on unordered job did not panic")
	}()
	func() {
		defer func() { recover() }()
		j := &Job{Type: Flexible, TotalSize: 40, ServiceTime: 1}
		j.FinalizeFlexible([]int{30}, 1.25)
		t.Error("mismatched split did not panic")
	}()
}

// TestSampleDistinctClustersProperty: any (k, n) draw yields k distinct
// in-range clusters.
func TestSampleDistinctClustersProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		n := 1 + r.Intn(8)
		k := 1 + r.Intn(n)
		got := sampleDistinctClusters(r, k, n)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, c := range got {
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
