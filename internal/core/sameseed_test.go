package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// sameSeedRow is one configuration of the same-seed matrix. run executes
// it once and returns its named outputs: the %+v of the result under
// the name "", then any trace it wrote (".jsonl", ".metrics", ".csv").
type sameSeedRow struct {
	name string
	run  func() ([][2]string, error)
}

// observedOutputs closes o and returns the JSONL trace it wrote to trace
// and its metrics summary block.
func observedOutputs(o *obs.Observer, trace *bytes.Buffer) ([][2]string, error) {
	if err := o.Close(); err != nil {
		return nil, err
	}
	var metrics strings.Builder
	if err := o.WriteText(&metrics); err != nil {
		return nil, err
	}
	return [][2]string{{".jsonl", trace.String()}, {".metrics", metrics.String()}}, nil
}

// poissonRow runs cfg as an open-system run, with a fresh observer when
// observe is set. A feature that left no mark on the run is an error, so
// a row cannot pass by comparing two runs of a feature that was off:
// faults must kill and checkpoint, the cutoff must fire, and decision
// tracing must write decision records.
func poissonRow(name string, cfg Config, observe bool) sameSeedRow {
	return sameSeedRow{name, func() ([][2]string, error) {
		cfg := cfg
		var trace bytes.Buffer
		if observe {
			cfg.Observer = obs.New(&trace)
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		switch {
		case cfg.Faults != nil && (res.JobsKilled == 0 || res.WorkSaved == 0):
			return nil, fmt.Errorf("%s: no job was killed or checkpointed", name)
		case cfg.SaturationCutoff && res.TruncatedJobs == 0:
			return nil, fmt.Errorf("%s: the saturation cutoff never fired", name)
		case cfg.Decisions != nil && !strings.Contains(trace.String(), `"ev":"decision"`):
			return nil, fmt.Errorf("%s: the trace has no decision records", name)
		}
		out := [][2]string{{"", resultKey(res)}}
		if !observe {
			return out, nil
		}
		traced, err := observedOutputs(cfg.Observer, &trace)
		return append(out, traced...), err
	}}
}

// poissonBase is the open-system run of the matrix under pol: SC on a
// single 128-processor cluster, every other policy on four of 32.
func poissonBase(t *testing.T, pol string) Config {
	t.Helper()
	clusters, limit := []int{32, 32, 32, 32}, 16
	if pol == "SC" {
		clusters, limit = []int{128}, 128
	}
	return Config{
		ClusterSizes: clusters,
		Spec:         testSpec(t, limit, len(clusters)),
		Policy:       pol,
		WarmupJobs:   200,
		MeasureJobs:  1500,
		Seed:         11,
		ArrivalRate:  testSpecRate(t, 0.6),
	}
}

// withFaults returns cfg under processor failures with checkpoints.
func withFaults(cfg Config) Config {
	cfg.Faults = &faults.Spec{MTBF: 2000, MTTR: 600, CheckpointInterval: 100}
	return cfg
}

// withCutoff returns cfg at an overload the saturation cutoff stops.
func withCutoff(t *testing.T, cfg Config) Config {
	cfg.ArrivalRate = testSpecRate(t, 1.5)
	cfg.SaturationCutoff = true
	return cfg
}

// sameSeedRows builds the matrix: every job source under every driver
// policy, the open system also under faults with checkpoints, the
// saturation cutoff, decision tracing, metrics plus a JSONL trace
// measured from time zero, and a sweep run (Config.SweepStats) under
// faults with checkpoints. The constant-backlog source takes no
// observer, so it has a plain row only.
func sameSeedRows(t *testing.T) []sameSeedRow {
	t.Helper()
	records := replayRecords(3000)
	var rows []sameSeedRow
	for _, pol := range driverPolicies {
		base := poissonBase(t, pol)
		clusters, limit := base.ClusterSizes, base.Spec.ComponentLimit
		rows = append(rows, poissonRow("poisson/"+pol, base, false))
		rows = append(rows, poissonRow("poisson-faults/"+pol, withFaults(base), true))
		rows = append(rows, poissonRow("poisson-cutoff/"+pol, withCutoff(t, base), false))

		cfg := base
		cfg.Decisions = &dectrace.Options{}
		rows = append(rows, poissonRow("poisson-decisions/"+pol, cfg, true))

		cfg = base
		cfg.NoWarmup = true
		rows = append(rows, poissonRow("poisson-traced/"+pol, cfg, true))

		cfg = withFaults(base)
		cfg.SweepStats = true
		rows = append(rows, poissonRow("poisson-sweep/"+pol, cfg, false))

		bcfg := BacklogConfig{
			ClusterSizes: clusters,
			Spec:         base.Spec,
			Policy:       pol,
			WarmupTime:   5000,
			MeasureTime:  30000,
			Seed:         6,
		}
		rows = append(rows, sameSeedRow{"backlog/" + pol, func() ([][2]string, error) {
			res, err := RunBacklog(bcfg)
			return [][2]string{{"", fmt.Sprintf("%+v", res)}}, err
		}})

		rcfg := ReplayConfig{
			ClusterSizes:    clusters,
			Records:         records,
			Policy:          pol,
			ComponentLimit:  limit,
			ExtensionFactor: workload.DefaultExtensionFactor,
			LoadFactor:      3,
			Seed:            7,
		}
		rows = append(rows, sameSeedRow{"replay/" + pol, func() ([][2]string, error) {
			res, err := Replay(rcfg)
			return [][2]string{{"", fmt.Sprintf("%+v", res)}}, err
		}})
		rows = append(rows, sameSeedRow{"replay-traced/" + pol, func() ([][2]string, error) {
			var trace, csv bytes.Buffer
			cfg := rcfg
			cfg.Observer = obs.New(&trace)
			cfg.ScheduleWriter = &csv
			res, err := Replay(cfg)
			if err != nil {
				return nil, err
			}
			traced, err := observedOutputs(cfg.Observer, &trace)
			out := [][2]string{{"", fmt.Sprintf("%+v", res)}, {".csv", csv.String()}}
			return append(out, traced...), err
		}})
	}
	return rows
}

// TestSameSeedMatrix is the determinism oracle: every row of the matrix
// runs twice at once, and the two runs must agree on the full %+v of
// the result and on every trace byte. Go randomizes map iteration and
// the global math/rand source, so a hazard of either kind that reaches
// an output makes the two runs differ; state shared between concurrent
// runs makes them differ too. The open-system rows also pin their
// digests in testdata/driver_digests.txt, beside the replay and backlog
// digests of TestDriverOutputsPinned, so a change to any open-system
// output fails here too. The pin is checked only when every open-system
// row ran and passed, so a -run filter skips it.
func TestSameSeedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every source, policy and feature twice")
	}
	rows := sameSeedRows(t)
	pinned := make([][][2]string, len(rows))
	t.Cleanup(func() {
		var got [][2]string
		for i, out := range pinned {
			if out == nil && isPoissonDigest(rows[i].name) {
				return
			}
			got = append(got, out...)
		}
		pinDigests(t, isPoissonDigest, got)
	})
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			a := runSameSeedTwice(t, row)
			if isPoissonDigest(row.name) && !t.Failed() {
				for _, kv := range a {
					pinned[i] = append(pinned[i], [2]string{row.name + kv[0], digest(kv[1])})
				}
			}
		})
	}
}

// runSameSeedTwice runs row twice at once, fails t unless the two runs
// agree on every output, and returns the outputs of the first run.
func runSameSeedTwice(t *testing.T, row sameSeedRow) [][2]string {
	t.Helper()
	var outs [2][][2]string
	var errs [2]error
	var wg sync.WaitGroup
	for k := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[k] = fmt.Errorf("%s: panic: %v", row.name, r)
				}
			}()
			outs[k], errs[k] = row.run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := outs[0], outs[1]
	for j := range a {
		if a[j] != b[j] {
			t.Errorf("same-seed runs differ in output %q:\n  first:  %.300s\n  second: %.300s",
				row.name+a[j][0], a[j][1], b[j][1])
		}
	}
	return a
}

// runSameSeedRows runs, as subtests, the matrix rows named in names; a
// name ending in "/" selects every policy of that row kind. It backs
// the per-feature determinism tests below, which run under -short too
// and pin no digests.
func runSameSeedRows(t *testing.T, names ...string) {
	for _, row := range sameSeedRows(t) {
		for _, n := range names {
			if row.name == n || strings.HasSuffix(n, "/") && strings.HasPrefix(row.name, n) {
				t.Run(row.name, func(t *testing.T) {
					t.Parallel()
					runSameSeedTwice(t, row)
				})
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) { runSameSeedRows(t, "poisson/LS") }

func TestEASYDeterministic(t *testing.T) { runSameSeedRows(t, "poisson/GS-EASY") }

func TestBacklogDeterministic(t *testing.T) { runSameSeedRows(t, "backlog/GS") }

func TestReplayDeterministic(t *testing.T) {
	runSameSeedRows(t, "replay/LP", "replay-traced/LP")
}

func TestNoWarmupDeterministic(t *testing.T) { runSameSeedRows(t, "poisson-traced/") }

func TestSaturationCutoffDeterministic(t *testing.T) { runSameSeedRows(t, "poisson-cutoff/") }

func TestDecisionRecordsByteIdenticalPerSeed(t *testing.T) {
	runSameSeedRows(t, "poisson-decisions/")
}

// isPoissonDigest selects the open-system lines of the digest file.
func isPoissonDigest(name string) bool { return strings.HasPrefix(name, "poisson") }
