package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"coalloc/internal/dectrace"
	"coalloc/internal/obs"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// obsRunConfig is a small observed LS run exercising arrivals, starts,
// departures and queue enable/disable transitions.
func obsRunConfig(t *testing.T) Config {
	t.Helper()
	spec := testSpec(t, 16, 4)
	return Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "LS",
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.6, 128),
		WarmupJobs:   100,
		MeasureJobs:  800,
		Seed:         11,
	}
}

// TestTraceByteIdentical pins the determinism guarantee of the trace sink:
// two runs of the same configuration and seed produce byte-identical JSONL.
func TestTraceByteIdentical(t *testing.T) {
	runOnce := func() []byte {
		var buf bytes.Buffer
		cfg := obsRunConfig(t)
		cfg.Observer = obs.New(&buf)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := cfg.Observer.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
	// Every line is one of the five record kinds.
	for _, line := range strings.Split(strings.TrimRight(string(a), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"t":`) || !strings.Contains(line, `"ev":`) {
			t.Fatalf("malformed trace line: %s", line)
		}
	}
}

// TestObserverMetricsConsistent checks the invariants the counters must
// satisfy on any completed open-system run.
func TestObserverMetricsConsistent(t *testing.T) {
	cfg := obsRunConfig(t)
	o := obs.New(nil)
	cfg.Observer = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := o.Metrics
	arrivals := m.Counter("jobs.arrivals").Value()
	starts := m.Counter("jobs.starts").Value()
	departures := m.Counter("jobs.departures").Value()
	if departures != uint64(cfg.WarmupJobs+res.Jobs) {
		t.Fatalf("departures = %d, want warmup+measured = %d", departures, cfg.WarmupJobs+res.Jobs)
	}
	if starts < departures || arrivals < starts {
		t.Fatalf("want arrivals >= starts >= departures, got %d/%d/%d", arrivals, starts, departures)
	}
	if m.Counter("sched.passes").Value() == 0 {
		t.Fatal("no scheduling passes recorded")
	}
	// LS disables a queue on every head miss; every disable is matched by
	// at most one enable (the run can end with queues still disabled).
	dis, en := m.Counter("queues.disables").Value(), m.Counter("queues.enables").Value()
	if dis == 0 {
		t.Fatal("no queue disables recorded at 60% load")
	}
	if en > dis {
		t.Fatalf("enables %d exceed disables %d", en, dis)
	}
	if m.Counter("sched.head_misses").Value() != dis {
		t.Fatalf("LS head misses %d != disables %d", m.Counter("sched.head_misses").Value(), dis)
	}
	if m.Counter("sim.events").Value() == 0 || m.Counter("sim.scheduled").Value() == 0 {
		t.Fatal("engine stats were not reported")
	}
}

// TestZeroWarmupLindley checks the NoWarmup path against a hand-computed
// schedule: with one unit-size processor and FCFS service the response
// times follow the Lindley recursion start_i = max(arrival_i, finish_i-1),
// and measurement from time zero must reproduce their mean exactly —
// including the first job, which the old departure-triggered start of
// measurement silently dropped.
func TestZeroWarmupLindley(t *testing.T) {
	const (
		seed   = uint64(42)
		n      = 500
		lambda = 0.5
		mu     = 1.0
	)
	cfg := Config{
		ClusterSizes: []int{1},
		Spec:         ExpService(mu),
		Policy:       "SC",
		ArrivalRate:  lambda,
		NoWarmup:     true,
		MeasureJobs:  n,
		Seed:         seed,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Jobs != n {
		t.Fatalf("measured %d jobs, want %d", res.Jobs, n)
	}

	// Replicate the simulator's named streams and sampling order: the
	// next interarrival gap is drawn before each arrival, and each job's
	// size and service are drawn at its arrival.
	src := rng.NewSource(seed)
	arr := src.Stream("core/arrivals")
	sizeStream := src.Stream("core/sizes")
	svcStream := src.Stream("core/services")
	spec := ExpService(mu)
	var at, finish, sum float64
	for i := 0; i < n; i++ {
		at += arr.Exp(lambda)
		j := spec.Sample(sizeStream, svcStream)
		start := math.Max(at, finish)
		finish = start + j.ServiceTime
		sum += finish - at
	}
	want := sum / n
	if diff := math.Abs(res.MeanResponse - want); diff > 1e-9*want {
		t.Fatalf("MeanResponse = %g, Lindley schedule gives %g (diff %g)", res.MeanResponse, want, diff)
	}
}

// TestNoWarmupDeterministic pins that two NoWarmup runs agree bit-for-bit.
func TestNoWarmupDeterministic(t *testing.T) {
	cfg := obsRunConfig(t)
	cfg.WarmupJobs = 0
	cfg.NoWarmup = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.MeanResponse != b.MeanResponse || a.GrossUtilization != b.GrossUtilization || a.Jobs != b.Jobs {
		t.Fatalf("NoWarmup runs differ: %+v vs %+v", a, b)
	}
}

// TestMergeReplicationsAllNaN: metrics that were NaN in every replication
// (no local jobs, no quantile samples) must stay NaN after the merge
// rather than silently becoming 0.
func TestMergeReplicationsAllNaN(t *testing.T) {
	nan := math.NaN()
	mk := func(mean float64) Result {
		return Result{
			Policy:              "GS",
			MeanResponse:        mean,
			MeanResponseLocal:   nan,
			MeanResponseGlobal:  nan,
			MedianResponse:      nan,
			P95Response:         nan,
			ResponseBySizeClass: []float64{nan, nan, nan, nan, nan},
		}
	}
	merged := mergeReplications([]Result{mk(100), mk(120), mk(110)})
	if merged.MeanResponse != 110 {
		t.Fatalf("MeanResponse = %g, want 110", merged.MeanResponse)
	}
	for name, v := range map[string]float64{
		"MeanResponseLocal":  merged.MeanResponseLocal,
		"MeanResponseGlobal": merged.MeanResponseGlobal,
		"MedianResponse":     merged.MedianResponse,
		"P95Response":        merged.P95Response,
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %g, want NaN", name, v)
		}
	}
	for i, v := range merged.ResponseBySizeClass {
		if !math.IsNaN(v) {
			t.Errorf("ResponseBySizeClass[%d] = %g, want NaN", i, v)
		}
	}
}

// TestMergeReplicationsSingleHalfWidth: one replication gives no
// across-replication variance estimate, so the half-width must be +Inf,
// never 0 (which would claim perfect confidence).
func TestMergeReplicationsSingleHalfWidth(t *testing.T) {
	merged := mergeReplications([]Result{{Policy: "GS", MeanResponse: 100}})
	if !math.IsInf(merged.RespHalfWidth, 1) {
		t.Fatalf("single-replication RespHalfWidth = %g, want +Inf", merged.RespHalfWidth)
	}
	if merged.MeanResponse != 100 {
		t.Fatalf("MeanResponse = %g, want 100", merged.MeanResponse)
	}
}

// TestRunReplicationsObservedSerialMatchesParallel: attaching an Observer
// switches RunReplications to the serial path; the merged Result must be
// bit-identical to the parallel run without one.
func TestRunReplicationsObservedSerialMatchesParallel(t *testing.T) {
	cfg := obsRunConfig(t)
	cfg.MeasureJobs = 400
	parallel, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatalf("RunReplications: %v", err)
	}
	cfg.Observer = obs.New(nil)
	serial, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatalf("RunReplications (observed): %v", err)
	}
	if parallel.MeanResponse != serial.MeanResponse || parallel.Jobs != serial.Jobs ||
		parallel.GrossUtilization != serial.GrossUtilization {
		t.Fatalf("observed serial merge differs from parallel: %+v vs %+v", serial, parallel)
	}
	if cfg.Observer.Metrics.Counter("jobs.departures").Value() == 0 {
		t.Fatal("observer saw no departures across replications")
	}
}

// TestEngineStatsReported: the event kernel never sees the observer; core
// reports its lifetime counters at the end of a run, and they equal the
// engine's own accessors. In a fault-free open-system run every executed
// event is an arrival or a departure, so sim.events also equals their sum.
func TestEngineStatsReported(t *testing.T) {
	s := &simulation{eng: sim.New(), obs: obs.New(nil)}
	s.eng.SetHandler(func(int32, any) {})
	for i := 0; i < 10; i++ {
		s.eng.ScheduleAfter(float64(i%3), 0, nil)
	}
	s.eng.Run()
	s.reportEngine()
	m := s.obs.Metrics
	if got, want := m.Counter("sim.events").Value(), s.eng.Steps(); got != want || got != 10 {
		t.Errorf("sim.events = %d, want Steps() = %d = 10", got, want)
	}
	if got, want := m.Counter("sim.scheduled").Value(), s.eng.Scheduled(); got != want {
		t.Errorf("sim.scheduled = %d, want Scheduled() = %d", got, want)
	}
	if got, want := m.Gauge("sim.pool.arena_slots").Value(), float64(s.eng.ArenaSlots()); got != want {
		t.Errorf("sim.pool.arena_slots = %g, want ArenaSlots() = %g", got, want)
	}

	cfg := obsRunConfig(t)
	o := obs.New(nil)
	cfg.Observer = o
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	m = o.Metrics
	events := m.Counter("sim.events").Value()
	if want := m.Counter("jobs.arrivals").Value() + m.Counter("jobs.departures").Value(); events != want {
		t.Errorf("observed run: sim.events = %d, want arrivals+departures = %d", events, want)
	}
	if scheduled := m.Counter("sim.scheduled").Value(); scheduled <= events {
		t.Errorf("observed run: sim.scheduled = %d, want more than the %d executed (the next arrival is pending)", scheduled, events)
	}
}

// TestQueueTransitionTimestamps: the multi-queue policies report their
// enable/disable transitions through the scheduling context, at the
// virtual time of the event that caused them. In a real run every
// disable or enable record must therefore carry the time of the nearest
// preceding record of another kind (the arrival, departure or decision
// whose pass made the transition).
func TestQueueTransitionTimestamps(t *testing.T) {
	cases := []struct {
		policy    string
		weights   []float64
		decisions bool
	}{
		{"LS", nil, false},
		{"LS-sorted", Unbalanced(4), false},
		{"LP", nil, true},
	}
	for _, c := range cases {
		t.Run(c.policy, func(t *testing.T) {
			cfg := obsRunConfig(t)
			cfg.Policy = c.policy
			cfg.QueueWeights = c.weights
			if c.decisions {
				cfg.Decisions = &dectrace.Options{}
			}
			var buf bytes.Buffer
			cfg.Observer = obs.New(&buf)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Observer.Close(); err != nil {
				t.Fatal(err)
			}
			var rec struct {
				T     float64 `json:"t"`
				Ev    string  `json:"ev"`
				Queue int     `json:"queue"`
			}
			last := math.NaN()
			counts := map[string]int{}
			global := 0
			for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
				rec.Queue = 0
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("line %d: %v", i+1, err)
				}
				counts[rec.Ev]++
				if rec.Ev != "disable" && rec.Ev != "enable" {
					last = rec.T
					continue
				}
				if rec.T != last {
					t.Fatalf("line %d: %s of queue %d at t=%v, want the preceding record's t=%v", i+1, rec.Ev, rec.Queue, rec.T, last)
				}
				if rec.Queue == workload.GlobalQueue {
					global++
				}
			}
			if counts["disable"] == 0 || counts["enable"] == 0 {
				t.Fatalf("no transitions to check: %v", counts)
			}
			if c.decisions && counts["decision"] == 0 {
				t.Fatalf("no decision records: %v", counts)
			}
			if c.policy == "LP" && global == 0 {
				t.Fatal("LP run recorded no global-queue transition")
			}
		})
	}
}
