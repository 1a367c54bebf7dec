package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// referenceCounters are the counters the reference model and Replay must
// agree on.
var referenceCounters = []string{
	"jobs.starts", "sched.passes", "sched.head_misses", "queues.disables", "queues.enables",
	"sched.backfill.attempts", "sched.backfill.successes",
}

// TestReferenceMatchesReplay feeds the same random records to the
// reference model (refsim_test.go) and to Replay on small random systems,
// for every policy PolicyNames lists, and requires identical scheduling:
// every start, disable and enable record of the JSONL trace, byte for
// byte and in order, the referenceCounters, and the same stuck queue at
// the end. Replay runs with its pass elision and retained reservations;
// the reference runs a full pass after every event.
func TestReferenceMatchesReplay(t *testing.T) {
	seeds, jobs := 48, 400
	if testing.Short() {
		seeds, jobs = 16, 300
	}
	for _, name := range strings.Split(strings.ReplaceAll(PolicyNames, " or ", ", "), ", ") {
		if _, ok := refKinds[name]; !ok {
			t.Fatalf("the reference does not model %s, which PolicyNames lists", name)
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			cfg := referenceConfig(seed, name, jobs)
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) { matchReference(t, cfg) })
		}
	}
}

// referenceConfig draws the system and the records of one seed: 2–4
// clusters of 4–16 processors (SC names: one cluster of their total), a
// component limit from 2 to the largest cluster, extension factor 1 on
// odd seeds and 1.25 on even ones, a fit rule, balanced or unbalanced
// routing, and a conservative lookahead.
func referenceConfig(seed uint64, policy string, jobs int) ReplayConfig {
	r := rng.NewStream(seed)
	sizes := make([]int, 2+r.Intn(3))
	largest := 0
	for i := range sizes {
		sizes[i] = 4 + r.Intn(13)
		largest = max(largest, sizes[i])
	}
	cfg := ReplayConfig{
		ClusterSizes:    sizes,
		Policy:          policy,
		Fit:             cluster.Fit(r.Intn(3)),
		Lookahead:       []int{1, 2, 4, 0}[r.Intn(4)],
		ComponentLimit:  2 + r.Intn(largest-1),
		ExtensionFactor: 1,
		Seed:            seed,
	}
	if seed%2 == 0 {
		cfg.ExtensionFactor = workload.DefaultExtensionFactor
	}
	if r.Intn(2) == 0 {
		cfg.QueueWeights = Unbalanced(len(sizes))
	}
	cfg.Records = referenceRecords(r, cfg, jobs, seed%3 == 0)
	if strings.HasPrefix(policy, "SC") {
		total := 0
		for _, n := range sizes {
			total += n
		}
		cfg.ClusterSizes, cfg.ComponentLimit, cfg.QueueWeights = []int{total}, total, nil
	}
	return cfg
}

// referenceRecords draws the log: whole-second submit gaps (zero gaps
// make arrivals due at one instant) and whole-second run times, so
// arrivals tie with departures as in intRecords, at an offered load near
// 0.4, where queues build and drain. Sizes prefer small jobs and are
// redrawn until an empty system can hold them. Under a policy that
// confines single components to their local cluster (LS, LS-sorted and
// LP) a single component is also redrawn until the smallest cluster holds it,
// so that no local queue blocks for good; the other policies keep the
// single components only some clusters hold. With oversized, one record
// three quarters in is a job no empty system holds: it exercises the
// never-fits paths and Replay's stuck-queue error.
func referenceRecords(r *rng.Stream, cfg ReplayConfig, jobs int, oversized bool) []dastrace.Record {
	sizes, nc := cfg.ClusterSizes, len(cfg.ClusterSizes)
	capacity, smallest := 0, math.MaxInt
	for _, n := range sizes {
		capacity += n
	}
	pol, _ := buildPolicy(cfg.Policy, nc, cfg.Fit, cfg.Lookahead)
	switch pol.(type) {
	case *policies.LS, *policies.LP:
		smallest = slices.Min(sizes)
	}
	holds := func(size int) bool {
		comps := workload.Split(size, cfg.ComponentLimit, nc)
		return cluster.PlaceVector(sizes, comps, cfg.Fit, make([]int, len(comps)), make([]bool, nc))
	}
	recs := make([]dastrace.Record, jobs)
	submit := 0.0
	for i := range recs {
		submit += float64(r.Intn(51))
		size := 0
		for size == 0 || !holds(size) || (workload.NumComponents(size, cfg.ComponentLimit, nc) == 1 && size > smallest) {
			u := r.Float64()
			size = 1 + int(u*u*float64(capacity))
		}
		recs[i] = dastrace.Record{ID: i + 1, Submit: submit, Size: size, Service: float64(1 + r.Intn(60))}
	}
	if oversized {
		for size := capacity; size > 0; size-- {
			if !holds(size) {
				recs[3*jobs/4].Size = size
				break
			}
		}
	}
	return recs
}

// matchReference replays cfg through Replay and the reference model and
// compares their schedules.
func matchReference(t *testing.T, cfg ReplayConfig) {
	t.Helper()
	var trace bytes.Buffer
	cfg.Observer = obs.New(&trace)
	_, err := Replay(cfg)
	if cerr := cfg.Observer.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	ref, rerr := referenceReplay(cfg)
	if rerr != nil {
		t.Fatal(rerr)
	}
	want := "<nil>"
	if q := ref.queued(); q > 0 {
		want = fmt.Sprintf("core: replay ended with %d jobs stuck in queue", q)
	}
	if got := fmt.Sprint(err); got != want {
		t.Errorf("Replay error %q, reference %q", got, want)
	}

	var got []string
	for _, line := range strings.Split(trace.String(), "\n") {
		for _, ev := range []string{`"ev":"start"`, `"ev":"disable"`, `"ev":"enable"`} {
			if strings.Contains(line, ev) {
				got = append(got, line)
			}
		}
	}
	for i := 0; i < max(len(got), len(ref.log)); i++ {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(ref.log) {
			w = ref.log[i]
		}
		if g != w {
			t.Fatalf("record %d of %d/%d differs:\nReplay    %s\nreference %s\npreceding: %q",
				i, len(got), len(ref.log), g, w, ref.log[max(0, i-4):i])
		}
	}
	for _, name := range referenceCounters {
		if g, w := cfg.Observer.Metrics.Counter(name).Value(), ref.counts[name]; g != uint64(w) {
			t.Errorf("%s: Replay %d, reference %d", name, g, w)
		}
	}
}
