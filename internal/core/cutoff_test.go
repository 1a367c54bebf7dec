package core

import (
	"testing"
)

// TestSaturationCutoffBitIdenticalWhenStable is the cutoff's bit-identity
// guardrail: on a run the divergence monitor never fires on, enabling
// Config.SaturationCutoff must not change a single field of the Result.
// The monitor only reads scheduler state at count-based checkpoints, so
// the event sequence and every stream draw are untouched.
func TestSaturationCutoffBitIdenticalWhenStable(t *testing.T) {
	for _, pol := range []string{"GS", "LS", "GS-EASY"} {
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         testSpec(t, 16, 4),
			Policy:       pol,
			WarmupJobs:   300,
			MeasureJobs:  4000,
			Seed:         3,
		}
		plain, err := RunAtUtilization(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SaturationCutoff = true
		cut, err := RunAtUtilization(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Saturated || cut.TruncatedJobs != 0 {
			t.Fatalf("%s: stable run saturated=%v truncated=%d", pol, plain.Saturated, cut.TruncatedJobs)
		}
		a, b := resultKey(plain), resultKey(cut)
		if a != b {
			t.Errorf("%s: cutoff changed a stable run's Result:\n  off: %s\n  on:  %s", pol, a, b)
		}
	}
}

// TestSaturationCutoffTruncatesSaturatedRun checks the monitor actually
// fires on a deeply saturated run: the result is flagged Saturated, the
// truncation is recorded, and the job accounting is consistent.
func TestSaturationCutoffTruncatesSaturatedRun(t *testing.T) {
	cfg := Config{
		ClusterSizes:     []int{32, 32, 32, 32},
		Spec:             testSpec(t, 16, 4),
		Policy:           "GS",
		WarmupJobs:       200,
		MeasureJobs:      8000,
		Seed:             3,
		SaturationCutoff: true,
	}
	res, err := RunAtUtilization(cfg, 0.95) // far beyond GS's ~0.62 maximum
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("cutoff run not flagged as saturated")
	}
	if res.TruncatedJobs <= 0 {
		t.Errorf("TruncatedJobs = %d, want > 0 for a deeply saturated run", res.TruncatedJobs)
	}
	if res.Jobs >= cfg.MeasureJobs {
		t.Errorf("Jobs = %d, want < MeasureJobs %d after the early stop", res.Jobs, cfg.MeasureJobs)
	}
	if res.Jobs+res.TruncatedJobs != cfg.MeasureJobs {
		t.Errorf("Jobs %d + TruncatedJobs %d != MeasureJobs %d", res.Jobs, res.TruncatedJobs, cfg.MeasureJobs)
	}
	// The full-horizon run must agree on the saturation verdict.
	cfg.SaturationCutoff = false
	full, err := RunAtUtilization(cfg, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Saturated {
		t.Error("full-horizon run disagrees: not saturated")
	}
	if full.Jobs != cfg.MeasureJobs {
		t.Errorf("full-horizon run measured %d jobs, want %d", full.Jobs, cfg.MeasureJobs)
	}
}

// TestSaturationCutoffMergedReplications checks that merged replications
// sum the per-replication truncations and keep the Saturated flag.
func TestSaturationCutoffMergedReplications(t *testing.T) {
	cfg := Config{
		ClusterSizes:     []int{32, 32, 32, 32},
		Spec:             testSpec(t, 16, 4),
		Policy:           "GS",
		WarmupJobs:       200,
		MeasureJobs:      6000,
		Seed:             3,
		SaturationCutoff: true,
	}
	cfg.ArrivalRate = cfg.Spec.ArrivalRateForGrossUtilization(0.95, 128)
	const n = 3
	merged, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Saturated {
		t.Error("merged saturated replications not flagged")
	}
	var wantTrunc int
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1000003
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		wantTrunc += r.TruncatedJobs
	}
	if wantTrunc <= 0 {
		t.Fatal("no replication truncated; config not saturated enough for the test")
	}
	if merged.TruncatedJobs != wantTrunc {
		t.Errorf("merged TruncatedJobs = %d, want the per-replication sum %d", merged.TruncatedJobs, wantTrunc)
	}
}
