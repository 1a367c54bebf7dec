package stats

import (
	"math"
	"testing"

	"coalloc/internal/rng"
)

// TestAddNEquivalence: the closed-form AddN must agree with count repeated
// Add calls to within floating-point noise, for mixed magnitudes and both
// orders of interleaving.
func TestAddNEquivalence(t *testing.T) {
	stream := rng.NewSource(7).Stream("test/addn")
	var batched, repeated Welford
	for i := 0; i < 50; i++ {
		x := stream.Exp(0.001) // spread over several orders of magnitude
		count := int64(1 + i%7)
		batched.AddN(x, count)
		for k := int64(0); k < count; k++ {
			repeated.Add(x)
		}
	}
	if batched.N() != repeated.N() {
		t.Fatalf("N = %d, want %d", batched.N(), repeated.N())
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("Mean", batched.Mean(), repeated.Mean())
	approx("Variance", batched.Variance(), repeated.Variance())
	if batched.Max() != repeated.Max() {
		t.Errorf("Max = %g, want %g", batched.Max(), repeated.Max())
	}
}

// TestAddNNonPositiveCount: count <= 0 must leave the accumulator untouched.
func TestAddNNonPositiveCount(t *testing.T) {
	var w Welford
	w.Add(3)
	w.AddN(100, 0)
	w.AddN(100, -5)
	if w.N() != 1 || w.Mean() != 3 {
		t.Fatalf("AddN with count<=0 mutated the accumulator: N=%d Mean=%g", w.N(), w.Mean())
	}
}

// TestTimeWeightedDecreasingReadPanics: reading the integral at a time
// before the last update is a caller bug (it silently dropped the final
// partial interval before this check existed) and must panic.
func TestTimeWeightedDecreasingReadPanics(t *testing.T) {
	for _, read := range []struct {
		name string
		call func(tw *TimeWeighted)
	}{
		{"Integral", func(tw *TimeWeighted) { tw.Integral(5) }},
		{"Average", func(tw *TimeWeighted) { tw.Average(5) }},
	} {
		t.Run(read.name, func(t *testing.T) {
			var tw TimeWeighted
			tw.StartAt(0, 2)
			tw.Set(10, 4)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s at t=5 after update at t=10 did not panic", read.name)
				}
			}()
			read.call(&tw)
		})
	}
}

// TestTimeWeightedIntegralAtLastTime: reading exactly at the last update
// time is legal and returns the accumulated integral.
func TestTimeWeightedIntegralAtLastTime(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(0, 2)
	tw.Set(10, 4)
	if got := tw.Integral(10); got != 20 {
		t.Fatalf("Integral(10) = %g, want 20", got)
	}
	if got := tw.Integral(15); got != 40 {
		t.Fatalf("Integral(15) = %g, want 40", got)
	}
}
