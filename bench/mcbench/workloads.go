package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/dectrace"
	"coalloc/internal/experiments"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
	"coalloc/internal/workpool"
)

// config fixes one workload instance. Every input is made from seed.
type config struct {
	seed  uint64
	quick bool   // QuickParams fidelity and smaller logs, for tests
	tmp   string // directory for the CSV files the sweeps write
}

// params returns the experiment parameters of the sweep workloads:
// publication fidelity (DefaultParams) with one replication per point, the
// run's seed, and CSV output for the checks. One replication keeps every
// curve, point and 33k-job run of the paper's sweep while cutting a
// repetition to a few seconds, so a run's median is taken over several
// repetitions: on a shared host a single repetition can run long.
func (c config) params() experiments.Params {
	p := experiments.DefaultParams()
	if c.quick {
		p = experiments.QuickParams()
	}
	p.Replications = 1
	p.Seed = c.seed
	p.DataDir = c.tmp
	return p
}

// instance is one workload set up for one repetition: run is the timed
// part, made only of calls into the program; check inspects what run
// produced.
type instance struct {
	run   func(t *tracer, parent int) error
	check func() (*outcome, error)
}

// outcome is what a repetition produced.
type outcome struct {
	// outputs are the checked outputs by name; their digests are compared
	// with bench/golden.json.
	outputs map[string]string
	// checks are the seed-independent invariants.
	checks []check
	// jobs counts the departures the runs reported (job-sources only).
	jobs int
	// counts are layer counts the runs reported, by metric name.
	counts map[string]float64
}

// check is one checked property of a repetition's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// benchWorkload is one benchmark workload. setup is the part a user pays
// before the simulations start (deriving the workload, generating a log);
// it is what setup_s times.
type benchWorkload struct {
	name  string
	why   string
	setup func(c config, prog *progressLog) *instance
}

var workloads = []benchWorkload{
	{
		name:  "paper-fcfs",
		why:   "the paper's Fig. 3 sweep of GS/LS/LP/SC at publication run length: the longest wait a user has, all FCFS",
		setup: sweep("fig3"),
	},
	{
		name:  "backfill",
		why:   "the backfill sweep, where the availability profile, reservations and pass elision dominate",
		setup: sweep("backfill"),
	},
	{
		name:  "job-sources",
		why:   "single large replay, constant-backlog and fault-injection runs with no sweep, as mcreplay and mcsim users run them",
		setup: jobSources,
	},
	{
		name:  "observed-sweep",
		why:   "fig5 with metrics and decision tracing on plus one JSONL-traced run: the observer, dectrace and trace-sink path",
		setup: observedSweep,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// withProgress attaches the benchmark's progress writer. A nil log must
// stay a nil interface, or the sweeps would format lines for nobody.
func withProgress(p experiments.Params, prog *progressLog) experiments.Params {
	if prog != nil {
		p.Progress = prog
	}
	return p
}

// sweep is a workload that runs one experiment of the paper's sweep.
func sweep(exp string) func(config, *progressLog) *instance {
	return func(c config, prog *progressLog) *instance {
		env := experiments.NewEnv(withProgress(c.params(), prog))
		var text string
		return &instance{
			run: func(t *tracer, parent int) error {
				id := t.begin("experiments.Run/"+exp, parent)
				defer t.end(id)
				var err error
				text, err = experiments.Run(exp, env)
				return err
			},
			check: func() (*outcome, error) {
				csv, err := os.ReadFile(filepath.Join(c.tmp, exp+".csv"))
				if err != nil {
					return nil, err
				}
				return &outcome{
					outputs: map[string]string{exp + ".txt": text, exp + ".csv": string(csv)},
					checks:  checkSeries(exp+".csv", csv),
				}, nil
			},
		}
	}
}

// DAS log scale of the job-sources replay: the synthetic log keeps the
// DAS arrival rate (39356 jobs in 90 days) at any record count.
const (
	dasJobs = 39356
	dasSpan = 90 * 24 * 3600
)

// sourcePolicies are the policies the job-sources runs cover.
var sourcePolicies = []string{"GS-CONS", "GS-EASY", "LS", "GS", "LP"}

// jobSources is the single-run workload: a trace replay, a
// constant-backlog run and a faulty open-system run per policy, fanned out
// over the program's workpool.
func jobSources(c config, prog *progressLog) *instance {
	env := experiments.NewEnv(c.params())
	records, backlogWarm, backlogMeasure, warm, measure := 400_000, 100_000.0, 1_000_000.0, 3000, 100_000
	if c.quick {
		// Long enough for Little's law to hold within 5% under faults.
		records, backlogWarm, backlogMeasure, warm, measure = 20_000, 20_000, 100_000, 1000, 20_000
	}
	recs := dastrace.Generate(dastrace.GenConfig{
		NumJobs: records,
		Span:    dasSpan * float64(records) / dasJobs,
		Seed:    c.seed,
	})
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	n := len(sourcePolicies)
	replays := make([]core.ReplayResult, n)
	runs := make([]core.Result, n)
	backlogs := make([]core.BacklogResult, n)
	errs := make([]error, len(sourceKinds)*n)
	// Task k runs kind k/n for policy k%n; the replays come first because
	// they are the longest, so the pool drains evenly.
	runTask := func(k int) (err error) {
		i, pol := k%n, sourcePolicies[k%n]
		switch sourceKinds[k/n] {
		case "replay":
			replays[i], err = core.Replay(core.ReplayConfig{
				ClusterSizes:    experiments.MulticlusterSizes,
				Records:         recs,
				Policy:          pol,
				ComponentLimit:  16,
				ExtensionFactor: workload.DefaultExtensionFactor,
				LoadFactor:      3,
				Seed:            c.seed,
			})
		case "faults":
			runs[i], err = core.RunAtUtilization(core.Config{
				ClusterSizes: experiments.MulticlusterSizes,
				Spec:         spec,
				Policy:       pol,
				WarmupJobs:   warm,
				MeasureJobs:  measure,
				Seed:         c.seed,
				Faults:       &faults.Spec{MTBF: 5000, MTTR: 900, CheckpointInterval: 300},
			}, 0.45)
		default:
			backlogs[i], err = core.RunBacklog(core.BacklogConfig{
				ClusterSizes: experiments.MulticlusterSizes,
				Spec:         spec,
				Policy:       pol,
				WarmupTime:   backlogWarm,
				MeasureTime:  backlogMeasure,
				Seed:         c.seed,
			})
		}
		return err
	}
	taskName := func(k int) string { return sourceKinds[k/n] + "/" + sourcePolicies[k%n] }
	return &instance{
		run: func(t *tracer, parent int) error {
			workpool.Do(len(errs), func(k int) {
				id := t.begin(taskName(k), parent)
				errs[k] = runTask(k)
				t.end(id)
				prog.stamp()
			})
			for k, err := range errs {
				if err != nil {
					return fmt.Errorf("%s: %w", taskName(k), err)
				}
			}
			return nil
		},
		check: func() (*outcome, error) {
			o := &outcome{outputs: make(map[string]string, len(errs)), counts: make(map[string]float64)}
			for i, pol := range sourcePolicies {
				name := "replay/" + pol
				o.outputs[name] = fmt.Sprintf("%v", replays[i])
				o.checks = append(o.checks, checkReplay(name, replays[i], len(recs))...)
				name = "faults/" + pol
				o.outputs[name] = fmt.Sprintf("%v", runs[i])
				o.checks = append(o.checks, checkRun(name, runs[i], measure)...)
				name = "backlog/" + pol
				o.outputs[name] = fmt.Sprintf("%v", backlogs[i])
				o.checks = append(o.checks, checkBacklog(name, backlogs[i])...)
				o.jobs += replays[i].Jobs + runs[i].Jobs + backlogs[i].Jobs
				o.counts["faults.jobs_killed"] += float64(runs[i].JobsKilled)
				o.counts["faults.resubmits"] += float64(runs[i].Resubmits)
			}
			return o, nil
		},
	}
}

// sourceKinds are the three job sources, in task order.
var sourceKinds = []string{"replay", "faults", "backlog"}

// observedSweep is the `mcexp -metrics -decisions fig5` path plus one
// GS-CONS run at 0.7 whose JSONL trace, decisions included, goes to a
// writer that counts and hashes the bytes.
func observedSweep(c config, prog *progressLog) *instance {
	p := withProgress(c.params(), prog)
	p.Observer = obs.New(nil)
	p.Decisions = &dectrace.Options{}
	env := experiments.NewEnv(p)
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	cfg := core.Config{
		ClusterSizes: experiments.MulticlusterSizes,
		Spec:         spec,
		Policy:       "GS-CONS",
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.7, 128),
		WarmupJobs:   p.WarmupJobs,
		MeasureJobs:  p.MeasureJobs,
		Seed:         c.seed,
		Decisions:    &dectrace.Options{},
	}
	var text string
	var res core.Result
	sink := newHashWriter()
	runObs := obs.New(sink)
	cfg.Observer = runObs
	return &instance{
		run: func(t *tracer, parent int) error {
			id := t.begin("experiments.Run/fig5", parent)
			var err error
			text, err = experiments.Run("fig5", env)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin("core.Run/GS-CONS", parent)
			defer t.end(id)
			if res, err = core.Run(cfg); err != nil {
				return err
			}
			prog.stamp()
			return runObs.Close()
		},
		check: func() (*outcome, error) {
			csv, err := os.ReadFile(filepath.Join(c.tmp, "fig5.csv"))
			if err != nil {
				return nil, err
			}
			var metrics, runMetrics bytes.Buffer
			if err := p.Observer.WriteText(&metrics); err != nil {
				return nil, err
			}
			if err := runObs.WriteText(&runMetrics); err != nil {
				return nil, err
			}
			o := &outcome{outputs: map[string]string{
				"fig5.txt":       text,
				"fig5.csv":       string(csv),
				"fig5.metrics":   metrics.String(),
				"run.result":     fmt.Sprintf("%v", res),
				"run.metrics":    runMetrics.String(),
				"run.jsonl.hash": fmt.Sprintf("%d bytes, sha256 %s", sink.n, sink.sum()),
			}}
			o.checks = append(checkSeries("fig5.csv", csv), checkRun("run", res, cfg.MeasureJobs)...)
			decisions := runObs.Metrics.Counter("sched.decisions").Value()
			o.checks = append(o.checks,
				check{Name: "run: observed decisions equal traced decisions", OK: decisions == uint64(res.Decisions),
					Detail: fmt.Sprintf("observer %d, result %d", decisions, res.Decisions)},
				check{Name: "run: JSONL trace written", OK: sink.n > 0})
			return o, nil
		},
	}
}

// hashWriter counts and hashes what is written to it.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// timeSetup sets the workload up reps times and returns the durations in
// seconds and the last instance. Before each set-up, the heap is collected
// and its memory returned to the OS, so every set-up grows a cold heap as a
// fresh process does; after a plain collection the runtime returns pages
// to the OS in the background, and set-ups that found them gone ran half
// again slower.
func timeSetup(w benchWorkload, c config, prog *progressLog, reps int) ([]float64, *instance) {
	out := make([]float64, reps)
	var inst *instance
	for i := range out {
		debug.FreeOSMemory()
		start := time.Now()
		inst = w.setup(c, prog)
		out[i] = time.Since(start).Seconds()
	}
	return out, inst
}
