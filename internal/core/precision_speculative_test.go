package core

import (
	"math"
	"testing"

	"coalloc/internal/stats"
)

// serialRunUntilPrecision reimplements the pre-speculation sequential
// stopping procedure — one replication at a time, strictly in seed order —
// as the reference the speculative engine must match bit for bit.
func serialRunUntilPrecision(t *testing.T, cfg PrecisionConfig) PrecisionResult {
	t.Helper()
	cfg.applyDefaults()
	var resp stats.Welford
	var results []Result
	for n := 1; n <= cfg.MaxReplications; n++ {
		c := cfg.Run
		c.Seed = cfg.Run.Seed + uint64(n-1)*1000003
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		resp.Add(res.MeanResponse)
		if n < cfg.MinReplications {
			continue
		}
		rel := math.Inf(1)
		if resp.Mean() != 0 {
			rel = resp.HalfWidth() / math.Abs(resp.Mean())
		}
		if rel <= cfg.RelativePrecision || n == cfg.MaxReplications {
			return PrecisionResult{
				Result:           mergeReplications(results),
				Replications:     n,
				AchievedRelative: rel,
				Converged:        rel <= cfg.RelativePrecision,
			}
		}
	}
	t.Fatal("serial reference did not terminate")
	return PrecisionResult{}
}

// TestRunUntilPrecisionSpeculativeMatchesSerial is the speculation
// guardrail: across a grid of seeds and precision targets, the speculative
// batched engine must stop at the same replication count and return a
// bit-identical merged PrecisionResult as the one-at-a-time serial
// procedure. Speculative replications beyond the stopping point must leave
// no trace in the result.
func TestRunUntilPrecisionSpeculativeMatchesSerial(t *testing.T) {
	spec := testSpec(t, 16, 4)
	base := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupJobs:   100,
		MeasureJobs:  800, // small runs: enough variance that targets differ
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.4, 128),
	}
	for _, seed := range []uint64{1, 5, 42} {
		for _, target := range []float64{0.25, 0.08, 0.02} {
			cfg := PrecisionConfig{Run: base, RelativePrecision: target, MaxReplications: 12}
			cfg.Run.Seed = seed
			spec, err := RunUntilPrecision(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := serialRunUntilPrecision(t, cfg)
			if spec.Replications != ref.Replications {
				t.Errorf("seed %d target %g: speculative stopped at %d replications, serial at %d",
					seed, target, spec.Replications, ref.Replications)
				continue
			}
			if spec.Converged != ref.Converged || spec.AchievedRelative != ref.AchievedRelative {
				t.Errorf("seed %d target %g: diagnosis differs: (%v, %g) vs (%v, %g)",
					seed, target, spec.Converged, spec.AchievedRelative, ref.Converged, ref.AchievedRelative)
			}
			if a, b := resultKey(spec.Result), resultKey(ref.Result); a != b {
				t.Errorf("seed %d target %g: merged Result differs:\n  speculative: %s\n  serial:      %s",
					seed, target, a, b)
			}
		}
	}
}

// TestRunUntilPrecisionCarriesAllResultFields pins the full-field merge:
// the PrecisionResult's embedded Result must equal, field for field, what
// RunReplications produces for the same config and replication count — not
// just the mean response and half-width.
func TestRunUntilPrecisionCarriesAllResultFields(t *testing.T) {
	spec := testSpec(t, 16, 4)
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "LS",
		WarmupJobs:   200,
		MeasureJobs:  2000,
		Seed:         9,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.35, 128),
	}
	pr, err := RunUntilPrecision(PrecisionConfig{Run: cfg, RelativePrecision: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunReplications(cfg, pr.Replications)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultKey(pr.Result), resultKey(want); a != b {
		t.Errorf("PrecisionResult.Result != RunReplications(%d):\n  precision:    %s\n  replications: %s",
			pr.Replications, a, b)
	}
	// Spot-check a few fields the old implementation dropped, so a future
	// regression fails loudly even if the formats happen to collide.
	if pr.GrossUtilization <= 0 || pr.NetUtilization <= 0 {
		t.Errorf("utilizations not carried: gross %g net %g", pr.GrossUtilization, pr.NetUtilization)
	}
	if len(pr.PerClusterUtilization) != len(cfg.ClusterSizes) {
		t.Errorf("per-cluster utilization has %d entries", len(pr.PerClusterUtilization))
	}
	if pr.MeanSlowdown < 1 {
		t.Errorf("slowdown %g not carried", pr.MeanSlowdown)
	}
	if pr.Throughput <= 0 || pr.SimTime <= 0 {
		t.Errorf("throughput %g / simtime %g not carried", pr.Throughput, pr.SimTime)
	}
}
