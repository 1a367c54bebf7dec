package core

import (
	"testing"

	"coalloc/internal/faults"
)

// TestAllocationsFlatInRunLength pins the "off means free" contracts of
// the fault and decision layers in a machine-independent form: with a
// zero-rate fault spec attached, or with decision tracing off, a run's
// allocations must not grow with the number of jobs it simulates. Queues,
// the event heap and the job arena reach their working size early and are
// reused, so the marginal cost of another job is zero allocations; the
// bound leaves room only for the occasional slice doubling. A policy
// whose hot path allocates per job (a queue that reallocates its backing
// array, a probe that escapes) shows up as a slope near or above one.
func TestAllocationsFlatInRunLength(t *testing.T) {
	const n = 2000
	cases := []struct {
		label string
		fs    *faults.Spec
	}{
		{"faults-zero-rate", &faults.Spec{MTBF: 0, MTTR: 900}},
		{"decisions-off", nil},
	}
	for _, policy := range []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS", "GS-SPF"} {
		for _, c := range cases {
			t.Run(policy+"/"+c.label, func(t *testing.T) {
				allocs := func(measure int) float64 {
					cfg := Config{
						ClusterSizes: []int{32, 32, 32, 32},
						Spec:         testSpec(t, 16, 4),
						Policy:       policy,
						WarmupJobs:   100,
						MeasureJobs:  measure,
						Seed:         1,
						Faults:       c.fs,
						Decisions:    nil,
					}
					return testing.AllocsPerRun(1, func() {
						if _, err := RunAtUtilization(cfg, 0.5); err != nil {
							t.Fatal(err)
						}
					})
				}
				short, long := allocs(n), allocs(4*n)
				if slope := (long - short) / (3 * n); slope >= 0.01 {
					t.Errorf("%.0f allocations at %d jobs, %.0f at %d: %.3f per extra job, want < 0.01",
						short, n, long, 4*n, slope)
				}
			})
		}
	}
}
