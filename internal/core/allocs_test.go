package core

import (
	"runtime"
	"sort"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
	"coalloc/internal/faults"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// TestDispatchZeroAlloc pins the simulator's side of a job's life at zero
// allocations in a warmed, measuring run: Dispatch (the placement copy
// carved from the arena, the allocation, the utilization integrals, the
// departure event) and the matching departure (release, response-time
// statistics, the policy's departure pass) must not touch the heap.
func TestDispatchZeroAlloc(t *testing.T) {
	sys := system{clusters: []int{32, 32, 32, 32}, policy: "GS", fit: cluster.WorstFit}
	pol, err := sys.build()
	if err != nil {
		t.Fatal(err)
	}
	s := newSimulation(sys, pol, rng.NewSource(1), "core", noCount, false)
	defer s.recycle()
	s.spec = testSpec(t, 16, 4)
	s.startMeasuring(0)
	// A mix of 1-, 2- and 3-component totals, cycled deterministically.
	sizes := []int{5, 24, 48, 17, 3, 31}
	clusters := []int{0, 1, 2, 3}
	// The departure releases the job's arena slot, so every cycle reuses
	// one slot and its buffers, and the handle is dead once it departed:
	// the departure shows in the finished count and the busy count.
	cycle := func() {
		j := s.spec.JobFromDraws(s.arena, sizes[s.nextID%int64(len(sizes))], 100)
		s.nextID++
		j.ID = s.nextID
		j.ArrivalTime = s.eng.Now()
		before := s.finished
		s.Dispatch(j, clusters[:len(j.Components)])
		if !s.eng.Step() || s.finished != before+1 || s.m.Busy() != 0 {
			t.Fatalf("job %d did not depart", s.nextID)
		}
	}
	// Warm up: let the event pool and the statistics reach their
	// working size.
	for i := 0; i < 200; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(2000, cycle); a != 0 {
		t.Fatalf("Dispatch plus departure allocates %.2f times per job, want 0", a)
	}
}

// TestAllocationsFlatInRunLength pins the "off means free" contracts of
// the fault and decision layers in a machine-independent form: with a
// zero-rate fault spec attached, with decision tracing off, or in a sweep
// run that skips the command-only statistics, a run's allocations must
// not grow with the number of jobs it simulates. Queues,
// the event heap and the job arena reach their working size early and are
// reused, so the marginal cost of another job is zero allocations; the
// bound leaves room only for the occasional slice doubling. A policy
// whose hot path allocates per job (a queue that reallocates its backing
// array, a probe that escapes) shows up as a slope near or above one.
// GS also runs flexible requests, whose split is carved at every
// placement attempt.
func TestAllocationsFlatInRunLength(t *testing.T) {
	const n = 2000
	cases := []struct {
		label string
		fs    *faults.Spec
		sweep bool
		rt    workload.RequestType
	}{
		{"faults-zero-rate", &faults.Spec{MTBF: 0, MTTR: 900}, false, workload.Unordered},
		{"decisions-off", nil, false, workload.Unordered},
		{"sweep-stats", nil, true, workload.Unordered},
		{"flexible", nil, false, workload.Flexible},
	}
	for _, policy := range []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS", "GS-SPF"} {
		for _, c := range cases {
			if c.rt != workload.Unordered && policy != "GS" {
				continue
			}
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
						SweepStats:   c.sweep,
						RequestType:  c.rt,
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

// TestBytesFlatInRunLength pins bytes per job, where
// TestAllocationsFlatInRunLength pins allocation counts: an arena that
// grows by one block per 1024 jobs makes few allocations but holds every
// job until the run ends. For each job source, the bytes a run twice as
// long allocates beyond the shorter run must stay below a constant: a
// departed job's arena slot is reused, and replayed records become arena
// jobs, not heap ones. Each run starts from an empty arena pool, so a
// warmed arena cannot hide the growth.
func TestBytesFlatInRunLength(t *testing.T) {
	const n = 20000
	const bound = 64 << 10
	recs := dastrace.Generate(dastrace.GenConfig{NumJobs: 2 * n, Seed: 42})
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Submit < recs[b].Submit })
	spec := testSpec(t, 16, 4)
	sources := []struct {
		label string
		run   func(scale int) int // runs scale units of length, returns jobs done
	}{
		{"poisson", func(scale int) int {
			res, err := RunAtUtilization(Config{
				ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS",
				WarmupJobs: 100, MeasureJobs: scale * n, Seed: 1,
			}, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return res.Jobs
		}},
		{"backlog", func(scale int) int {
			res, err := RunBacklog(BacklogConfig{
				ClusterSizes: []int{32, 32, 32, 32}, Spec: spec, Policy: "GS-EASY",
				WarmupTime: 1000, MeasureTime: float64(scale) * 1e6, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Jobs
		}},
		{"replay", func(scale int) int {
			res, err := Replay(ReplayConfig{
				ClusterSizes: []int{32, 32, 32, 32}, Records: recs[:scale*n], Policy: "LS",
				ComponentLimit: 16, ExtensionFactor: workload.DefaultExtensionFactor, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Jobs
		}},
	}
	for _, src := range sources {
		t.Run(src.label, func(t *testing.T) {
			var jobs [3]int
			bytes := func(scale int) uint64 {
				runtime.GC()
				runtime.GC() // a pooled arena survives one collection, not two
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				jobs[scale] = src.run(scale)
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			short, long := bytes(1), bytes(2)
			if jobs[2]-jobs[1] < n/2 {
				t.Fatalf("the long run did %d jobs, the short one %d: too close to measure", jobs[2], jobs[1])
			}
			if long > short+bound {
				t.Errorf("%d bytes for %d jobs, %d for %d: %.1f bytes per extra job, want under %d bytes in all",
					short, jobs[1], long, jobs[2], float64(long-short)/float64(jobs[2]-jobs[1]), bound)
			}
		})
	}
}
