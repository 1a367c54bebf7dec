package main

import (
	"fmt"
	"strings"
	"time"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/dectrace"
	"coalloc/internal/experiments"
	"coalloc/internal/obs"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// The layer suite runs in every traced run, after the traced repetition,
// in a process of its own. Its probes do not depend on the workload: the
// kernel, workload generation and placement microbenchmarks, the policy
// harness, a few observed runs for the scheduling counts, and a reduced
// job-sources set for core's three job sources. Every traced run reports
// every per-layer metric, and a change to one layer shows in the same
// probe on each workload's record.

// suiteSize scales the suite; quick is for tests.
type suiteSize struct {
	holdEvents, sampleJobs, harnessJobs, placePasses, genReps int
	warm, measure                                             int
}

func sizesFor(c config) suiteSize {
	if c.quick {
		return suiteSize{holdEvents: 100_000, sampleJobs: 50_000, harnessJobs: 2000, placePasses: 2, genReps: 1, warm: 1000, measure: 10_000}
	}
	return suiteSize{holdEvents: 3_000_000, sampleJobs: 1_000_000, harnessJobs: 20_000, placePasses: 20, genReps: 5, warm: 3000, measure: 30_000}
}

// holdDepth is the pending-event depth of the kernel microbenchmark: about
// what the open-system runs keep pending (one arrival plus the running
// jobs).
const holdDepth = 20

// runSuite runs every probe and returns the per-layer metrics it owns and
// the checks of its runs.
func runSuite(c config, t *tracer) (map[string]float64, []check, error) {
	sz := sizesFor(c)
	m := make(map[string]float64)
	root := t.begin("suite", -1)
	defer t.end(root)

	m["sim.ns_per_event"] = holdModel(sz.holdEvents, c.seed)

	gen := dastrace.DefaultConfig()
	gen.Seed = c.seed
	var genMs, deriveMs []float64
	for i := 0; i < sz.genReps; i++ {
		start := time.Now()
		recs := dastrace.Generate(gen)
		genMs = append(genMs, ms(time.Since(start)))
		start = time.Now()
		workload.Derive(recs)
		deriveMs = append(deriveMs, ms(time.Since(start)))
	}
	m["workload.generate_ms"], m["workload.derive_ms"] = median(genMs), median(deriveMs)
	env := experiments.NewEnv(c.params())
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	m["workload.ns_per_job"] = sampleRate(spec, sz.sampleJobs, c.seed)

	var idles, reqs [][]int
	record := func(idle, comps []int) { idles, reqs = append(idles, idle), append(reqs, comps) }
	for _, pol := range harnessPolicies {
		rec := record
		if pol != "GS" {
			rec = nil
		}
		if err := runHarness(pol, experiments.MulticlusterSizes, spec, 0.6, sz.harnessJobs, c.seed, t, root, rec); err != nil {
			return nil, nil, err
		}
	}
	spans := t.snapshot()
	for _, pol := range harnessPolicies {
		sub, dep := spans["policies.Submit/"+pol], spans["policies.JobDeparted/"+pol]
		m["policies.ns_per_call."+pol] = (sub.SelfS + dep.SelfS) * 1e9 / float64(sub.Count+dep.Count)
	}
	m["cluster.ns_per_place"], m["cluster.place_hit_ratio"] = placeRate(idles, reqs, sz.placePasses)

	checks, err := observedProbes(spec, sz, c.seed, m)
	if err != nil {
		return nil, nil, err
	}

	// Core's job sources: the job-sources set at its reduced size.
	src := jobSources(config{seed: c.seed, quick: true, tmp: c.tmp}, nil)
	id := t.begin("job-sources", root)
	err = src.run(t, id)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	o, err := src.check()
	if err != nil {
		return nil, nil, err
	}
	checks = append(checks, o.checks...)
	for name, agg := range t.snapshot() {
		for _, kind := range sourceKinds {
			if strings.HasPrefix(name, kind+"/") {
				m["core."+kind+"_s"] += agg.TotalS
			}
		}
	}
	m["core.jobs_simulated"] = float64(o.jobs)
	for name, v := range o.counts {
		m[name] = v
	}
	return m, checks, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// holdModel times the event kernel in the classic hold model: every event
// schedules one successor, so the pending set stays at holdDepth.
func holdModel(events int, seed uint64) float64 {
	eng := sim.New()
	s := rng.NewSource(seed).Stream("bench/hold")
	eng.SetHandler(func(int32, any) {
		if eng.Scheduled() < uint64(events) {
			eng.ScheduleAfter(s.Exp(1), 0, nil)
		}
	})
	for i := 0; i < holdDepth; i++ {
		eng.ScheduleAfter(s.Exp(1), 0, nil)
	}
	start := time.Now()
	eng.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(eng.Steps())
}

// sampleRate times Spec.SampleInto with an arena, resetting it every 10k
// jobs as a run's end would.
func sampleRate(spec workload.Spec, jobs int, seed uint64) float64 {
	src := rng.NewSource(seed)
	sizes, svcs := src.Stream("bench/sizes"), src.Stream("bench/services")
	a := workload.NewArena()
	start := time.Now()
	for i := 1; i <= jobs; i++ {
		spec.SampleInto(a, sizes, svcs)
		if i%10_000 == 0 {
			a.Reset()
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(jobs)
}

// placeRate times Worst Fit PlaceInto against recorded occupancies: each
// idle vector is rebuilt as a multicluster once, then every recorded
// request is placed against its own occupancy, passes times over.
func placeRate(idles, reqs [][]int, passes int) (nsPerPlace, hitRatio float64) {
	sizes := experiments.MulticlusterSizes
	systems := make([]*cluster.Multicluster, len(idles))
	all := make([]int, len(sizes))
	for c := range all {
		all[c] = c
	}
	for i, idle := range idles {
		busy := make([]int, len(sizes))
		for c := range busy {
			busy[c] = sizes[c] - idle[c]
		}
		systems[i] = cluster.New(sizes)
		systems[i].Alloc(busy, all)
	}
	place, used := make([]int, len(sizes)), make([]bool, len(sizes))
	hits := 0
	start := time.Now()
	for p := 0; p < passes; p++ {
		hits = 0
		for i, m := range systems {
			if m.PlaceInto(reqs[i], cluster.WorstFit, place, used) {
				hits++
			}
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(passes*len(systems)), float64(hits) / float64(len(systems))
}

// observedProbes runs LS and LP at 0.6 and GS-EASY and GS-CONS at 0.7 with
// an Observer attached, GS-CONS also with decisions and a JSONL trace, and
// derives the scheduling counts from the observers' counters.
func observedProbes(spec workload.Spec, sz suiteSize, seed uint64, m map[string]float64) ([]check, error) {
	var checks []check
	counter := func(o *obs.Observer, name string) float64 { return float64(o.Metrics.Counter(name).Value()) }
	var events, departures, disables, fcfsDepartures float64
	var passes, skipped, repaired, bfTries, bfHits, misses, truncated, bfDepartures float64
	for _, p := range []struct {
		policy string
		util   float64
	}{{"LS", 0.6}, {"LP", 0.6}, {"GS-EASY", 0.7}, {"GS-CONS", 0.7}} {
		cfg := core.Config{
			ClusterSizes: experiments.MulticlusterSizes,
			Spec:         spec,
			Policy:       p.policy,
			ArrivalRate:  spec.ArrivalRateForGrossUtilization(p.util, 128),
			WarmupJobs:   sz.warm,
			MeasureJobs:  sz.measure,
			Seed:         seed,
		}
		var sink *hashWriter
		if p.policy == "GS-CONS" {
			sink = newHashWriter()
			cfg.Observer = obs.New(sink)
			cfg.Decisions = &dectrace.Options{}
		} else {
			cfg.Observer = obs.New(nil)
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.policy, err)
		}
		if err := cfg.Observer.Close(); err != nil {
			return nil, err
		}
		o := cfg.Observer
		checks = append(checks, checkRun("observed "+p.policy, res, sz.measure)...)
		dep := counter(o, "jobs.departures")
		events += counter(o, "sim.events")
		departures += dep
		if p.policy == "LS" || p.policy == "LP" {
			disables += counter(o, "queues.disables")
			fcfsDepartures += dep
			continue
		}
		passes += counter(o, "sched.passes")
		skipped += counter(o, "sched.passes_skipped")
		repaired += counter(o, "sched.passes_repaired")
		bfTries += counter(o, "sched.backfill.attempts")
		bfHits += counter(o, "sched.backfill.successes")
		misses += counter(o, "sched.head_misses")
		truncated += counter(o, "sched.lookahead_truncated")
		bfDepartures += dep
		if sink != nil {
			m["obs.decisions"] = counter(o, "sched.decisions")
			m["obs.trace_bytes"] = float64(sink.n)
		}
	}
	m["sim.events_per_job"] = events / departures
	m["queues.disables_per_job"] = disables / fcfsDepartures
	m["policies.passes_per_job"] = passes / bfDepartures
	m["policies.pass_skip_ratio"] = skipped / passes
	m["policies.pass_repair_ratio"] = repaired / passes
	m["policies.backfill_success_ratio"] = bfHits / bfTries
	m["policies.head_misses_per_job"] = misses / bfDepartures
	m["policies.lookahead_truncated"] = truncated
	return checks, nil
}
