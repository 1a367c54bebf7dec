package core

import (
	"strings"
	"testing"

	"coalloc/internal/faults"
	"coalloc/internal/obs"
)

// TestElisionEndToEndGuardrail runs whole simulations of every policy
// family that elides passes, with and without fault injection, and checks
// that the elision engages and that its counter compensation holds. Every
// family but GS-EASY skips passes (EASY's watermark needs a head no
// cluster can hold). Every family but GS-CONS, which counts no pass over
// an empty queue, counts exactly one sched.passes per scheduling event:
// an arrival, a resubmission, a repair, a kill, or a departure other than
// the one the run stops at. Whether each elided pass is a true no-op is
// checked against full passes elsewhere: fault-free by
// TestReferenceMatchesReplay, with silent failures, kills, resubmissions
// and repairs by the lockstep audits of package policies, which run every
// family beside its full-pass twin, and for whole runs by the
// poisson-faults and poisson-traced digests TestSameSeedMatrix pins.
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
				cfg.Observer = obs.New(nil)
				if _, err := RunAtUtilization(cfg, 0.6); err != nil {
					t.Fatal(err)
				}
				count := func(name string) uint64 { return cfg.Observer.Metrics.Counter(name).Value() }
				if policy != "GS-EASY" && count("sched.passes_skipped") == 0 {
					t.Error("the run elided no passes")
				}
				if policy == "GS-CONS" {
					return
				}
				events := count("jobs.arrivals") + count("faults.resubmits") + count("faults.repairs") +
					count("faults.kills") + count("jobs.departures") - 1
				if passes := count("sched.passes"); passes != events {
					t.Errorf("sched.passes = %d, want one per scheduling event: %d", passes, events)
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
