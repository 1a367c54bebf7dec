package analysis

import (
	"math"
	"testing"

	"coalloc/internal/dastrace"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMM1(t *testing.T) {
	if got := MM1MeanResponse(0.5, 1); got != 2 {
		t.Errorf("MM1MeanResponse(0.5,1) = %g", got)
	}
	if !math.IsInf(MM1MeanResponse(1, 1), 1) {
		t.Error("unstable M/M/1 should be +Inf")
	}
	func() {
		defer func() { recover() }()
		MM1MeanResponse(-1, 1)
		t.Error("negative lambda did not panic")
	}()
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct {
		a    float64
		c    int
		want float64
	}{
		{1, 1, 0.5},
		{1, 2, 0.2},
		{2, 2, 0.4},
		{10, 10, 0.215},   // ~0.2146
		{0.5, 1, 1.0 / 3}, // a/(1+a)
	}
	for _, cse := range cases {
		got := ErlangB(cse.a, cse.c)
		if !almost(got, cse.want, 5e-4) {
			t.Errorf("ErlangB(%g, %d) = %.4f, want %.4f", cse.a, cse.c, got, cse.want)
		}
	}
	if ErlangB(0, 5) != 0 || ErlangB(0, 0) != 1 {
		t.Error("ErlangB zero-load edge cases")
	}
}

func TestErlangBMonotone(t *testing.T) {
	// Blocking increases with load, decreases with servers.
	prev := 0.0
	for a := 0.5; a <= 20; a += 0.5 {
		b := ErlangB(a, 8)
		if b < prev {
			t.Fatalf("ErlangB not increasing in load at a=%g", a)
		}
		prev = b
	}
	for c := 1; c < 20; c++ {
		if ErlangB(5, c+1) > ErlangB(5, c) {
			t.Fatalf("ErlangB not decreasing in servers at c=%d", c)
		}
	}
}

func TestErlangC(t *testing.T) {
	// M/M/1: P(wait) = rho.
	if got := ErlangC(0.6, 1); !almost(got, 0.6, 1e-12) {
		t.Errorf("ErlangC(0.6, 1) = %g, want 0.6", got)
	}
	if got := ErlangC(5, 4); got != 1 {
		t.Errorf("overloaded ErlangC = %g, want 1", got)
	}
	// Known value: a=2, c=3 -> ~0.444.
	if got := ErlangC(2, 3); !almost(got, 0.4444, 5e-4) {
		t.Errorf("ErlangC(2,3) = %.4f", got)
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		mmc := MMcMeanResponse(rho, 1, 1)
		mm1 := MM1MeanResponse(rho, 1)
		if !almost(mmc, mm1, 1e-9) {
			t.Errorf("M/M/1 via MMc at rho=%g: %g vs %g", rho, mmc, mm1)
		}
	}
}

func TestMMcWaitAndStability(t *testing.T) {
	if w := MMcMeanResponse(2.8, 1, 4) - 1; w <= 0 {
		t.Errorf("wait %g at rho=0.7", w)
	}
	if !math.IsInf(MMcMeanResponse(4, 1, 4), 1) {
		t.Error("unstable M/M/c should be +Inf")
	}
}

func TestBatchServerBound(t *testing.T) {
	// Unit-size jobs pack perfectly: bound = 1.
	if got := BatchServerMaxUtilization([]int{1}, []float64{1}, 8); !almost(got, 1, 1e-9) {
		t.Errorf("unit jobs bound = %g, want 1", got)
	}
	// Jobs of size 3 on capacity 8: pack 2, waste 2 -> bound 6/8.
	if got := BatchServerMaxUtilization([]int{3}, []float64{1}, 8); !almost(got, 0.75, 1e-9) {
		t.Errorf("size-3 bound = %g, want 0.75", got)
	}
	// Jobs of size p pack perfectly.
	if got := BatchServerMaxUtilization([]int{8}, []float64{1}, 8); !almost(got, 1, 1e-9) {
		t.Errorf("full-machine jobs bound = %g, want 1", got)
	}
}

func TestBatchServerBoundDominatesSimulation(t *testing.T) {
	// The renewal bound must sit at or above the simulated SC maximal
	// utilization for the DAS workload (the bound ignores temporal
	// fragmentation). The simulated value is ~0.675.
	values, probs := dastrace.SizeSpec()
	bound := BatchServerMaxUtilization(values, probs, 128)
	if bound < 0.675 {
		t.Errorf("bound %.3f below the simulated SC maximum ~0.675", bound)
	}
	if bound > 1 {
		t.Errorf("bound %.3f above 1", bound)
	}
}

func TestBatchServerBoundPanics(t *testing.T) {
	func() {
		defer func() { recover() }()
		BatchServerMaxUtilization(nil, nil, 8)
		t.Error("empty inputs did not panic")
	}()
	func() {
		defer func() { recover() }()
		BatchServerMaxUtilization([]int{0}, []float64{1}, 8)
		t.Error("zero size did not panic")
	}()
}
