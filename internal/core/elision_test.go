package core

import (
	"strings"
	"testing"

	"coalloc/internal/faults"
	"coalloc/internal/policies"
)

// stripElisionLines removes the sched.passes_skipped and
// sched.passes_repaired counters — the only metrics allowed to differ
// between elided and full-pass runs.
func stripElisionLines(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "sched.passes_skipped") || strings.Contains(l, "sched.passes_repaired") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestElisionEndToEndGuardrail pins the pass-elision machinery (the EASY
// stuck-head watermark and the conservative retained reservations with
// prefix repair) bit-identical across whole simulations: for every policy
// family, with and without fault injection, runs with elision on and off
// must produce equal Results, byte-identical JSONL traces, and identical
// metrics up to the elision counters themselves. This is the end-to-end
// statement of the policy-level equivalence tests, and the fault cases
// additionally cover kills and capacity changes arriving between passes.
func TestElisionEndToEndGuardrail(t *testing.T) {
	specs := map[string]*faults.Spec{
		"faultfree":   nil,
		"faulty":      {MTBF: 4000, MTTR: 600, RetryBase: 10, RetryCap: 600},
		"faulty-ckpt": {MTBF: 1000, MTTR: 600, RetryBase: 10, RetryCap: 600, CheckpointInterval: 120},
	}
	for _, policy := range []string{"GS-CONS", "GS-EASY", "GS", "GS-SPF", "LS", "LP"} {
		for label, fs := range specs {
			t.Run(policy+"/"+label, func(t *testing.T) {
				cfg := faultTestConfig(t, policy, fs)
				prev := policies.SetPassElision(false)
				resOff, traceOff, metricsOff := runObserved(t, cfg, 0.6)
				policies.SetPassElision(true)
				resOn, traceOn, metricsOn := runObserved(t, cfg, 0.6)
				policies.SetPassElision(prev)
				if resultKey(resOff) != resultKey(resOn) {
					t.Errorf("pass elision changed the Result:\noff: %+v\non:  %+v", resOff, resOn)
				}
				if traceOff != traceOn {
					t.Error("pass elision changed the JSONL trace")
				}
				if a, b := stripElisionLines(metricsOff), stripElisionLines(metricsOn); a != b {
					t.Errorf("pass elision changed the metrics block:\noff:\n%s\non:\n%s", a, b)
				}
			})
		}
	}
}

// TestConservativeElisionObservable checks that the elision actually
// engages on a realistic run — a guardrail against the fast path silently
// rotting into "always take the full pass", which every equivalence test
// would still wave through.
func TestConservativeElisionObservable(t *testing.T) {
	cfg := faultTestConfig(t, "GS-CONS", nil)
	_, _, metrics := runObserved(t, cfg, 0.6)
	if !strings.Contains(metrics, "sched.passes_skipped") {
		t.Error("GS-CONS run elided no passes")
	}
	if !strings.Contains(metrics, "sched.passes_repaired") {
		t.Error("GS-CONS run repaired no stale passes")
	}
}
