package core

import (
	"bytes"
	"strings"
	"testing"

	"coalloc/internal/faults"
	"coalloc/internal/obs"
)

// faultTestConfig is a short multicluster run with observability attached:
// small enough to run for every policy, long enough to see kills at a
// nonzero failure rate.
func faultTestConfig(t *testing.T, policy string, spec *faults.Spec) Config {
	t.Helper()
	return Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       policy,
		WarmupJobs:   200,
		MeasureJobs:  2000,
		Seed:         99,
		Faults:       spec,
	}
}

// runObserved executes cfg at the given utilization with a fresh observer,
// returning the result, the JSONL trace, and the metrics summary block.
func runObserved(t *testing.T, cfg Config, util float64) (Result, string, string) {
	t.Helper()
	var trace bytes.Buffer
	cfg.Observer = obs.New(&trace)
	res, err := RunAtUtilization(cfg, util)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Observer.Flush(); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	if err := cfg.Observer.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	return res, trace.String(), metrics.String()
}

// TestFaultFreeGuardrail pins the zero-rate bit-identity contract: a nil
// fault spec and a disabled (zero-MTBF) spec must produce byte-identical
// traces, metrics, and equal Results for every fault-aware policy family.
func TestFaultFreeGuardrail(t *testing.T) {
	for _, policy := range []string{"GS", "LS", "LP", "GS-SPF", "GS-EASY", "GS-CONS"} {
		t.Run(policy, func(t *testing.T) {
			base := faultTestConfig(t, policy, nil)
			disabled := faultTestConfig(t, policy, &faults.Spec{MTBF: 0, MTTR: 900})
			resA, traceA, metricsA := runObserved(t, base, 0.5)
			resB, traceB, metricsB := runObserved(t, disabled, 0.5)
			if resultKey(resA) != resultKey(resB) {
				t.Errorf("disabled fault spec changed the Result:\nnil:      %+v\ndisabled: %+v", resA, resB)
			}
			if traceA != traceB {
				t.Error("disabled fault spec changed the JSONL trace")
			}
			if metricsA != metricsB {
				t.Errorf("disabled fault spec changed the metrics block:\nnil:\n%s\ndisabled:\n%s", metricsA, metricsB)
			}
			if resA.MeanAvailableFraction != 1 {
				t.Errorf("fault-free MeanAvailableFraction = %g, want exactly 1", resA.MeanAvailableFraction)
			}
			if strings.Contains(metricsA, "faults.") {
				t.Error("fault-free metrics block contains fault metrics")
			}
		})
	}
}

// TestFaultInjectionDeterministic pins the nonzero-rate determinism
// contract: two runs of the same seed must be byte-identical in trace and
// metrics and equal in Result.
func TestFaultInjectionDeterministic(t *testing.T) {
	spec := &faults.Spec{MTBF: 2000, MTTR: 600}
	for _, policy := range []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS"} {
		t.Run(policy, func(t *testing.T) {
			resA, traceA, metricsA := runObserved(t, faultTestConfig(t, policy, spec), 0.6)
			resB, traceB, metricsB := runObserved(t, faultTestConfig(t, policy, spec), 0.6)
			if resultKey(resA) != resultKey(resB) {
				t.Errorf("same-seed fault runs differ:\n%+v\n%+v", resA, resB)
			}
			if traceA != traceB {
				t.Error("same-seed fault runs produced different JSONL traces")
			}
			if metricsA != metricsB {
				t.Error("same-seed fault runs produced different metrics blocks")
			}
		})
	}
}

// TestFaultInjectionKillsAndRepairs sanity-checks the injected process: at
// a high failure rate under load, failures are applied, some land on fully
// busy clusters (kills), repairs happen, and capacity visibly shrinks.
func TestFaultInjectionKillsAndRepairs(t *testing.T) {
	spec := &faults.Spec{MTBF: 500, MTTR: 900}
	res, trace, metrics := runObserved(t, faultTestConfig(t, "LS", spec), 0.7)
	if res.FailuresInjected == 0 {
		t.Fatal("no failures injected at MTBF 500")
	}
	if res.Repairs > res.FailuresInjected {
		t.Errorf("%d repairs exceed %d failures", res.Repairs, res.FailuresInjected)
	}
	if res.JobsKilled == 0 {
		t.Error("no jobs killed at utilization 0.7 with MTBF 500")
	}
	if res.Resubmits > res.JobsKilled {
		t.Errorf("%d resubmits exceed %d kills", res.Resubmits, res.JobsKilled)
	}
	if res.JobsKilled > 0 && res.WorkLost <= 0 {
		t.Errorf("%d kills lost %g processor-seconds", res.JobsKilled, res.WorkLost)
	}
	if !(res.MeanAvailableFraction > 0 && res.MeanAvailableFraction < 1) {
		t.Errorf("MeanAvailableFraction = %g, want in (0, 1) under sustained failures", res.MeanAvailableFraction)
	}
	for _, ev := range []string{`"ev":"fail"`, `"ev":"repair"`, `"ev":"kill"`, `"ev":"resubmit"`} {
		if !strings.Contains(trace, ev) {
			t.Errorf("trace has no %s record", ev)
		}
	}
	for _, m := range []string{"faults.failures", "faults.repairs", "faults.kills", "faults.avail_capacity"} {
		if !strings.Contains(metrics, m) {
			t.Errorf("metrics block has no %s", m)
		}
	}
}

// TestFaultConfigValidation accepts fault specs on every built-in policy
// (every policy handles the fault events) and rejects incomplete specs.
func TestFaultConfigValidation(t *testing.T) {
	for _, policy := range []string{"GS", "LS", "LP", "GS-SPF", "GS-EASY", "GS-CONS"} {
		ok := faultTestConfig(t, policy, &faults.Spec{MTBF: 1000, MTTR: 900})
		ok.ArrivalRate = 1
		if err := ok.Validate(); err != nil {
			t.Errorf("%s with faults rejected: %v", policy, err)
		}
	}
	noMTTR := faultTestConfig(t, "GS", &faults.Spec{MTBF: 1000})
	noMTTR.ArrivalRate = 1
	if err := noMTTR.Validate(); err == nil || !strings.Contains(err.Error(), "MTTR") {
		t.Errorf("missing MTTR validated, err = %v", err)
	}
	badCkpt := faultTestConfig(t, "GS-CONS", &faults.Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: -60})
	badCkpt.ArrivalRate = 1
	if err := badCkpt.Validate(); err == nil || !strings.Contains(err.Error(), "checkpoint interval") {
		t.Errorf("negative checkpoint interval validated, err = %v", err)
	}
}

// TestCheckpointModel exercises the checkpoint/restart fault model
// end-to-end on the backfilling policies: checkpointing preserves work
// (WorkSaved > 0), the per-kill loss is structurally bounded by one
// interval of the largest job (lost < kills * interval * maxSize), the
// saved work shows up in the kill trace records, and disabling the
// interval keeps WorkSaved at exactly zero.
func TestCheckpointModel(t *testing.T) {
	// The interval is short relative to service times because victim
	// selection aborts the most recently started occupant: a long interval
	// would let every victim die before its first checkpoint and the test
	// would vacuously pass the zero case.
	const interval = 60.0
	for _, policy := range []string{"GS-EASY", "GS-CONS"} {
		t.Run(policy, func(t *testing.T) {
			spec := &faults.Spec{MTBF: 500, MTTR: 900, CheckpointInterval: interval}
			res, trace, metrics := runObserved(t, faultTestConfig(t, policy, spec), 0.7)
			if res.JobsKilled == 0 {
				t.Fatal("no kills at MTBF 500 / util 0.7; the scenario tests nothing")
			}
			if res.WorkSaved <= 0 {
				t.Errorf("WorkSaved = %g with %d kills and checkpointing on", res.WorkSaved, res.JobsKilled)
			}
			// Each kill forfeits strictly less than one checkpoint interval
			// of progress per processor; 128 is the workload's largest job.
			if bound := float64(res.JobsKilled) * interval * 128; res.WorkLost >= bound {
				t.Errorf("WorkLost = %g >= structural bound %g", res.WorkLost, bound)
			}
			if !strings.Contains(trace, `"saved":`) {
				t.Error("kill records carry no saved field")
			}
			if !strings.Contains(metrics, "faults.saved_work") {
				t.Error("metrics block has no faults.saved_work")
			}

			off, _, _ := runObserved(t, faultTestConfig(t, policy, &faults.Spec{MTBF: 500, MTTR: 900}), 0.7)
			if off.WorkSaved != 0 {
				t.Errorf("WorkSaved = %g without checkpointing, want exactly 0", off.WorkSaved)
			}
		})
	}
}

// TestFaultReplicationMerge checks that merged replications sum the fault
// counts and that the parallel merge is deterministic.
func TestFaultReplicationMerge(t *testing.T) {
	spec := &faults.Spec{MTBF: 1000, MTTR: 600}
	cfg := faultTestConfig(t, "LS", spec)
	cfg.ArrivalRate = testSpecRate(t, 0.5)
	const n = 3
	merged, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(merged) != resultKey(again) {
		t.Errorf("replicated fault runs differ:\n%+v\n%+v", merged, again)
	}
	var failures, kills int
	var lost float64
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1000003
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		failures += r.FailuresInjected
		kills += r.JobsKilled
		lost += r.WorkLost
	}
	if merged.FailuresInjected != failures || merged.JobsKilled != kills || merged.WorkLost != lost {
		t.Errorf("merge lost fault counts: got %d/%d/%g want %d/%d/%g",
			merged.FailuresInjected, merged.JobsKilled, merged.WorkLost, failures, kills, lost)
	}
}
