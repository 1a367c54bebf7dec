package core

import (
	"bytes"
	"strings"
	"testing"

	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
)

// decTestConfig is one small open-system point for the decision-trace
// guardrails.
func decTestConfig(t *testing.T, policy string) Config {
	t.Helper()
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       policy,
		WarmupJobs:   200,
		MeasureJobs:  1500,
		Seed:         11,
		ArrivalRate:  testSpecRate(t, 0.6),
	}
	if policy == "SC" || policy == "SC-EASY" || policy == "SC-CONS" {
		cfg.ClusterSizes = []int{128}
		cfg.Spec = testSpec(t, 16, 1)
	}
	return cfg
}

// stripRegret zeroes the decision-trace aggregates so a traced result can
// be compared field-for-field against an untraced one.
func stripRegret(r Result) Result {
	r.Decisions = 0
	r.RegretTotal = 0
	r.RegretMax = 0
	r.RegretDecisions = 0
	return r
}

// TestDecisionTracingLeavesRunBitIdentical is the zero-interference
// guardrail: enabling decision tracing must not change a single scheduling
// outcome — the traced run's Result, minus the regret aggregates
// themselves, is bit-identical to the untraced run, across the policy and
// fault matrix. The tracer only reads (placements probe into its own
// scratch) and draws from no random stream, so any divergence here means
// a probe mutated simulation state.
func TestDecisionTracingLeavesRunBitIdentical(t *testing.T) {
	faultSpecs := []*faults.Spec{nil, {MTBF: 1500, MTTR: 600}}
	for _, policy := range []string{"GS", "LS", "LP", "GS-SPF", "GS-EASY", "GS-CONS", "SC"} {
		for fi, fs := range faultSpecs {
			cfg := decTestConfig(t, policy)
			cfg.Faults = fs
			off, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s faults=%d off: %v", policy, fi, err)
			}
			cfg.Decisions = &dectrace.Options{}
			on, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s faults=%d on: %v", policy, fi, err)
			}
			if on.Decisions == 0 {
				t.Errorf("%s faults=%d: traced run recorded no decisions", policy, fi)
			}
			if resultKey(off) != resultKey(stripRegret(on)) {
				t.Errorf("%s faults=%d: decision tracing changed the run:\noff %s\non  %s",
					policy, fi, resultKey(off), resultKey(stripRegret(on)))
			}
		}
	}
}

// TestDecisionTracingMergesAcrossReplications covers the replicated path:
// tracing must not perturb the merged result either, and the regret
// aggregates must actually fold across replications.
func TestDecisionTracingMergesAcrossReplications(t *testing.T) {
	cfg := decTestConfig(t, "LS")
	off, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Decisions = &dectrace.Options{}
	on, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(off) != resultKey(stripRegret(on)) {
		t.Errorf("replicated decision tracing changed the run:\noff %s\non  %s",
			resultKey(off), resultKey(stripRegret(on)))
	}
	single, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Decisions <= single.Decisions {
		t.Errorf("merged Decisions %d not folded over replications (single run: %d)",
			on.Decisions, single.Decisions)
	}
	if on.RegretMax < single.RegretMax {
		t.Errorf("merged RegretMax %g below the first replication's %g",
			on.RegretMax, single.RegretMax)
	}
}

// TestDecisionTracingAddsOnlyDecisionRecords: the rest of the trace must
// not move when tracing turns on — removing the decision lines from a
// traced run's JSONL yields byte-for-byte the untraced run's JSONL.
func TestDecisionTracingAddsOnlyDecisionRecords(t *testing.T) {
	run := func(decisions bool) string {
		var buf bytes.Buffer
		cfg := decTestConfig(t, "GS-CONS")
		if decisions {
			cfg.Decisions = &dectrace.Options{}
		}
		cfg.Observer = obs.New(&buf)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Observer.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	off := run(false)
	on := run(true)
	var kept []string
	for _, line := range strings.SplitAfter(on, "\n") {
		if strings.Contains(line, `"ev":"decision"`) {
			continue
		}
		kept = append(kept, line)
	}
	if filtered := strings.Join(kept, ""); filtered != off {
		t.Error("decision tracing perturbed non-decision trace records")
	}
	if off == on {
		t.Error("traced run emitted no decision records")
	}
}
