package core

import (
	"math"
	"strings"
	"testing"
)

func TestRunUntilPrecisionConverges(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupJobs:   500,
		MeasureJobs:  6000,
		Seed:         3,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.35, 128),
	}
	res, err := RunUntilPrecision(PrecisionConfig{
		Run:               base,
		RelativePrecision: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: achieved %.3f in %d replications",
			res.AchievedRelative, res.Replications)
	}
	if res.Replications < 3 || res.Replications > 20 {
		t.Errorf("replications %d outside bounds", res.Replications)
	}
	if res.AchievedRelative > 0.10 {
		t.Errorf("achieved %.3f, target 0.10", res.AchievedRelative)
	}
	if res.MeanResponse <= 0 || math.IsInf(res.RespHalfWidth, 1) {
		t.Errorf("mean %g half-width %g", res.MeanResponse, res.RespHalfWidth)
	}
	if res.Jobs != res.Replications*6000 {
		t.Errorf("jobs %d for %d replications", res.Jobs, res.Replications)
	}
}

func TestRunUntilPrecisionTighterTargetNeedsMoreReplications(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupJobs:   300,
		MeasureJobs:  3000,
		Seed:         5,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.45, 128),
	}
	loose, err := RunUntilPrecision(PrecisionConfig{Run: base, RelativePrecision: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunUntilPrecision(PrecisionConfig{Run: base, RelativePrecision: 0.03, MaxReplications: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Replications < loose.Replications {
		t.Errorf("tight target used %d replications, loose used %d",
			tight.Replications, loose.Replications)
	}
}

func TestRunUntilPrecisionCapsAtMax(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupJobs:   100,
		MeasureJobs:  500, // tiny runs: high variance
		Seed:         7,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.5, 128),
	}
	res, err := RunUntilPrecision(PrecisionConfig{
		Run:               base,
		RelativePrecision: 0.0001, // unreachable
		MaxReplications:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged at an unreachable precision")
	}
	if res.Replications != 4 {
		t.Errorf("replications %d, want the cap 4", res.Replications)
	}
}

func TestRunUntilPrecisionValidation(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		ArrivalRate:  0.01,
	}
	// NaN would never converge and +Inf always would, at the first check.
	for _, rp := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunUntilPrecision(PrecisionConfig{Run: base, RelativePrecision: rp}); err == nil {
			t.Errorf("relative precision %g accepted", rp)
		}
	}
	if _, err := RunUntilPrecision(PrecisionConfig{
		Run: base, RelativePrecision: 0.1, MinReplications: 1, MaxReplications: 2,
	}); err == nil {
		t.Error("min replications below 2 accepted")
	}
	// An explicit single replication must get the specific diagnosis, not
	// the generic bounds error (which used to read "bounds 1..20" and
	// suggested the pair was malformed rather than the 1 itself).
	_, err := RunUntilPrecision(PrecisionConfig{Run: base, RelativePrecision: 0.1, MinReplications: 1})
	if err == nil {
		t.Fatal("MinReplications 1 accepted")
	}
	if !strings.Contains(err.Error(), "confidence half-width") || strings.Contains(err.Error(), "bounds") {
		t.Errorf("MinReplications 1 error = %q, want the half-width explanation", err)
	}
}

// TestRunUntilPrecisionNonConvergedAtMinBound pins the non-converged path
// at the smallest legal configuration: exactly 2 replications with an
// unreachable target must report Converged == false with a finite achieved
// precision, not an error.
func TestRunUntilPrecisionNonConvergedAtMinBound(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupJobs:   100,
		MeasureJobs:  500,
		Seed:         11,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.4, 128),
	}
	res, err := RunUntilPrecision(PrecisionConfig{
		Run:               base,
		RelativePrecision: 1e-9,
		MinReplications:   2,
		MaxReplications:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged at a 1e-9 relative precision in 2 replications")
	}
	if res.Replications != 2 {
		t.Errorf("replications %d, want 2", res.Replications)
	}
	if math.IsInf(res.AchievedRelative, 0) || math.IsNaN(res.AchievedRelative) || res.AchievedRelative <= 0 {
		t.Errorf("achieved relative precision %g, want finite positive", res.AchievedRelative)
	}
}
