package core

import (
	"math"
	"testing"
)

// skipStats returns res with the fields a sweep run skips
// (Config.SweepStats) set as such a run reports them.
func skipStats(res Result) Result {
	nan := math.NaN()
	res.RespHalfWidth, res.MedianResponse, res.P95Response = nan, nan, nan
	res.MeanSlowdown, res.MeanJobsInSystem, res.UtilizationImbalance = nan, nan, nan
	res.PerClusterUtilization = nil
	return res
}

// TestSweepStatsKeepsWhatSweepsRead runs every driver policy, plain, under
// faults with checkpoints, and at an overload the saturation cutoff stops,
// once with Config.SweepStats and once without. The sweep run must agree
// bit for bit on every field a sweep reads, and report the skipped ones
// as NaN or nil. The %+v of a float is its shortest round-trip form, so
// equal strings mean equal bits.
func TestSweepStatsKeepsWhatSweepsRead(t *testing.T) {
	for _, pol := range driverPolicies {
		base := poissonBase(t, pol)
		variants := []struct {
			name string
			cfg  Config
		}{
			{"plain", base},
			{"faults", withFaults(base)},
			{"cutoff", withCutoff(t, base)},
		}
		for _, v := range variants {
			t.Run(v.name+"/"+pol, func(t *testing.T) {
				t.Parallel()
				full, err := Run(v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := v.cfg
				cfg.SweepStats = true
				sweep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case cfg.Faults != nil && (full.JobsKilled == 0 || full.WorkSaved == 0):
					t.Fatal("no job was killed or checkpointed")
				case cfg.SaturationCutoff && full.TruncatedJobs == 0:
					t.Fatal("the saturation cutoff never fired")
				case math.IsNaN(full.MedianResponse) || full.PerClusterUtilization == nil:
					t.Fatal("the full run skipped statistics")
				}
				if sweep.PerClusterUtilization != nil {
					t.Errorf("sweep run has per-cluster utilizations %v", sweep.PerClusterUtilization)
				}
				if a, b := resultKey(sweep), resultKey(skipStats(full)); a != b {
					t.Errorf("sweep run differs from the full run:\n  sweep: %s\n  full:  %s", a, b)
				}
			})
		}
	}
}

// TestSweepStatsReplications: merged sweep replications keep the
// across-replication half-width, and agree with the merged full runs on
// every field a single sweep run keeps.
func TestSweepStatsReplications(t *testing.T) {
	cfg := poissonBase(t, "LS")
	full, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SweepStats = true
	sweep, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sweep.RespHalfWidth) || sweep.RespHalfWidth != full.RespHalfWidth {
		t.Errorf("merged half-width %g, want the full runs' %g", sweep.RespHalfWidth, full.RespHalfWidth)
	}
	want := skipStats(full)
	want.RespHalfWidth = full.RespHalfWidth
	if a, b := resultKey(sweep), resultKey(want); a != b {
		t.Errorf("merged sweep runs differ:\n  sweep: %s\n  full:  %s", a, b)
	}
	if sweep.PerClusterUtilization != nil {
		t.Errorf("merged sweep runs have per-cluster utilizations %v", sweep.PerClusterUtilization)
	}
}
