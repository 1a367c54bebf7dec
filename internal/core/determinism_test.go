package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"coalloc/internal/obs"
)

// TestRunReplicationsDeterministic is the guardrail for the parallel
// replication runner: gathering the replications concurrently must produce
// exactly the result of running them one by one in seed order, run after
// run. Any scheduling-order dependence in the gather/merge split shows up
// here as a flaky mismatch.
func TestRunReplicationsDeterministic(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  2000,
		Seed:         7,
		ArrivalRate:  testSpecRate(t, 0.5),
	}
	const n = 3
	par, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	// The serial reference: the same per-replication runs, one at a time,
	// merged in seed order — what RunReplications did before it went
	// parallel.
	serial := make([]Result, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.applyDefaults()
		c.Seed = cfg.Seed + uint64(i)*1000003
		serial[i], err = Run(c)
		if err != nil {
			t.Fatal(err)
		}
	}
	want := mergeReplications(serial)
	if resultKey(par) != resultKey(want) {
		t.Errorf("parallel replications diverge from serial:\nparallel %s\nserial   %s",
			resultKey(par), resultKey(want))
	}
	// And the parallel path must be repeatable against itself.
	again, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(par) != resultKey(again) {
		t.Errorf("parallel replications not repeatable:\nfirst  %s\nsecond %s",
			resultKey(par), resultKey(again))
	}
}

// openTestConfig is one small open-system point shared by the guardrails
// below.
func openTestConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  1500,
		Seed:         11,
		ArrivalRate:  testSpecRate(t, 0.5),
	}
}

// TestRunRepeatableAcrossArenaReuse pins that recycling job arenas through
// the run pool leaves no state behind: the same configuration must produce
// the identical result on every consecutive run.
func TestRunRepeatableAcrossArenaReuse(t *testing.T) {
	cfg := openTestConfig(t)
	cfg.Policy = "GS-EASY"
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(first) != resultKey(again) {
			t.Fatalf("run %d differs after arena reuse:\nfirst %s\nagain %s",
				i+2, resultKey(first), resultKey(again))
		}
	}
}

// tracedJob is one job's life as the JSONL trace records it.
type tracedJob struct {
	arrive        string // the whole arrive record: time, size, comps, queue
	start, depart float64
	departed      bool
}

// tracedJobs runs cfg with a JSONL trace attached and collects every job's
// arrive record and its start and departure times, indexed by job ID - 1.
func tracedJobs(t *testing.T, cfg Config) []tracedJob {
	t.Helper()
	var buf bytes.Buffer
	cfg.Observer = obs.New(&buf)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Observer.Close(); err != nil {
		t.Fatal(err)
	}
	var jobs []tracedJob
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var rec struct {
			T   float64 `json:"t"`
			Ev  string  `json:"ev"`
			Job int64   `json:"job"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s line %d: %v", cfg.Policy, i+1, err)
		}
		switch rec.Ev {
		case "arrive":
			if rec.Job != int64(len(jobs))+1 {
				t.Fatalf("%s line %d: job %d arrives after job %d", cfg.Policy, i+1, rec.Job, len(jobs))
			}
			jobs = append(jobs, tracedJob{arrive: line})
		case "start":
			jobs[rec.Job-1].start = rec.T
		case "depart":
			jobs[rec.Job-1].depart, jobs[rec.Job-1].departed = rec.T, true
		}
	}
	return jobs
}

// TestPoliciesDrawCommonJobs pins common random numbers on the live path:
// every policy run from one Config and seed draws the same job stream
// from the run's named streams, so the policies of a sweep point compare
// on identical workloads. For every job that completed under both GS and
// the policy, the arrive records (time, size, components, queue) must be
// identical and the time in service, depart.t - start.t, equal up to the
// rounding of the clock additions that produced the two departure times.
func TestPoliciesDrawCommonJobs(t *testing.T) {
	base := openTestConfig(t)
	ref := tracedJobs(t, base)
	for _, pol := range []string{"LS", "LP", "GS-EASY", "GS-CONS"} {
		t.Run(pol, func(t *testing.T) {
			cfg := base
			cfg.Policy = pol
			compared, moved := 0, 0
			for i, got := range tracedJobs(t, cfg) {
				if i >= len(ref) || !ref[i].departed || !got.departed {
					continue
				}
				id, want := i+1, ref[i]
				compared++
				if got.arrive != want.arrive {
					t.Fatalf("job %d arrives differently:\nGS  %s\n%s %s", id, want.arrive, pol, got.arrive)
				}
				if got.start != want.start {
					moved++
				}
				a, b := want.depart-want.start, got.depart-got.start
				if math.Abs(a-b) > 1e-12*math.Max(want.depart, got.depart) {
					t.Fatalf("job %d serves %v under GS but %v under %s", id, a, b, pol)
				}
			}
			// Vacuity: enough jobs compared, and the policy really
			// scheduled them differently from GS.
			if compared < base.MeasureJobs {
				t.Fatalf("only %d jobs completed in both runs", compared)
			}
			if moved == 0 {
				t.Fatal("every job started at the same time as under GS; the comparison is vacuous")
			}
		})
	}
}
