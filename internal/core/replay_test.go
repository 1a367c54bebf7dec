package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

func replayRecords(n int) []dastrace.Record {
	recs := dastrace.Generate(dastrace.GenConfig{NumJobs: n, Seed: 42})
	return recs
}

// intRecords is replayRecords(n) with run times rounded up to whole
// seconds, round-tripped through an SWF file, which stores whole-second
// submit times. Single-component jobs that start on an arrival then
// finish on a whole second, so at load 1 some arrivals fall on the
// instant a running job departs, and the arrival-wins-tie rule decides
// the replayed schedule. (With the log's fractional run times no arrival
// ties with a departure.)
func intRecords(t *testing.T, n int) []dastrace.Record {
	t.Helper()
	recs := replayRecords(n)
	for i := range recs {
		recs[i].Service = math.Ceil(recs[i].Service)
	}
	var buf bytes.Buffer
	if err := dastrace.WriteSWF(&buf, recs, ""); err != nil {
		t.Fatal(err)
	}
	recs, err := dastrace.ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// tieInstants counts the instants of a JSONL trace at which one job
// arrives and another departs.
func tieInstants(trace string) int {
	lines := strings.Split(trace, "\n")
	// event splits a record into its time prefix and its kind.
	event := func(line string) (at, ev string) {
		at, rest, _ := strings.Cut(line, `,"ev":"`)
		ev, _, _ = strings.Cut(rest, `"`)
		return at, ev
	}
	arrive := map[string]bool{}
	for _, line := range lines {
		if at, ev := event(line); ev == "arrive" {
			arrive[at] = true
		}
	}
	n := 0
	counted := map[string]bool{}
	for _, line := range lines {
		if at, ev := event(line); ev == "depart" && arrive[at] && !counted[at] {
			counted[at] = true
			n++
		}
	}
	return n
}

// TestReplayArrivalWinsTie pins the replay tie rule: an arrival submitted
// at the instant a running job departs is handed to the policy before the
// departure. Record B arrives exactly when A finishes, on one 4-processor
// cluster A fills, so B must queue behind A for that instant.
func TestReplayArrivalWinsTie(t *testing.T) {
	var jsonl bytes.Buffer
	o := obs.New(&jsonl)
	res, err := Replay(ReplayConfig{
		ClusterSizes: []int{4},
		Records: []dastrace.Record{
			{ID: 1, Submit: 0, Size: 4, Service: 10},
			{ID: 2, Submit: 10, Size: 4, Service: 5},
		},
		Policy:          "GS",
		ComponentLimit:  4,
		ExtensionFactor: 1,
		Observer:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != 1 {
		t.Errorf("MaxQueue = %d, want 1: B arrived after A departed", res.MaxQueue)
	}
	trace := jsonl.String()
	arrive := strings.Index(trace, `{"t":10,"ev":"arrive","job":2,`)
	depart := strings.Index(trace, `{"t":10,"ev":"depart","job":1,`)
	if arrive < 0 || depart < 0 || arrive > depart {
		t.Errorf("want B's arrive before A's depart at t=10:\n%s", trace)
	}
}

func TestReplayBasics(t *testing.T) {
	res, err := Replay(ReplayConfig{
		ClusterSizes:    []int{32, 32, 32, 32},
		Records:         replayRecords(3000),
		Policy:          "LS",
		ComponentLimit:  16,
		ExtensionFactor: workload.DefaultExtensionFactor,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3000 {
		t.Errorf("replayed %d jobs", res.Jobs)
	}
	if res.MeanResponse <= 0 || res.Makespan <= 0 {
		t.Errorf("response %g makespan %g", res.MeanResponse, res.Makespan)
	}
	if res.GrossUtilization <= 0 || res.GrossUtilization > 1 {
		t.Errorf("gross utilization %g", res.GrossUtilization)
	}
	if res.NetUtilization >= res.GrossUtilization {
		t.Errorf("net %g should be below gross %g", res.NetUtilization, res.GrossUtilization)
	}
	if res.MedianResponse > res.P95Response {
		t.Errorf("median %g above p95 %g", res.MedianResponse, res.P95Response)
	}
	if res.MeanSlowdown < 1 {
		t.Errorf("mean slowdown %g below 1", res.MeanSlowdown)
	}
}

func TestReplayLoadFactorRaisesUtilization(t *testing.T) {
	base := ReplayConfig{
		ClusterSizes:    []int{32, 32, 32, 32},
		Records:         replayRecords(3000),
		Policy:          "GS",
		ComponentLimit:  16,
		ExtensionFactor: 1.25,
		Seed:            1,
	}
	slow, err := Replay(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.LoadFactor = 8
	fastRes, err := Replay(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.GrossUtilization <= slow.GrossUtilization {
		t.Errorf("8x load compression: utilization %g -> %g should rise",
			slow.GrossUtilization, fastRes.GrossUtilization)
	}
	if fastRes.MeanResponse <= slow.MeanResponse {
		t.Errorf("8x load compression: response %g -> %g should rise",
			slow.MeanResponse, fastRes.MeanResponse)
	}
	if fastRes.Makespan >= slow.Makespan {
		t.Error("compressed replay should finish sooner")
	}
}

func TestReplayOutOfOrderRecords(t *testing.T) {
	recs := replayRecords(500)
	// Shuffle by reversing; Replay must sort by submit time.
	rev := make([]dastrace.Record, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	a, err := Replay(ReplayConfig{
		ClusterSizes: []int{32, 32, 32, 32}, Records: recs,
		Policy: "GS", ComponentLimit: 16, ExtensionFactor: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(ReplayConfig{
		ClusterSizes: []int{32, 32, 32, 32}, Records: rev,
		Policy: "GS", ComponentLimit: 16, ExtensionFactor: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse != b.MeanResponse {
		t.Error("record order affected the replay")
	}
}

func TestReplayValidation(t *testing.T) {
	good := ReplayConfig{
		ClusterSizes: []int{32, 32, 32, 32}, Records: replayRecords(10),
		Policy: "GS", ComponentLimit: 16, ExtensionFactor: 1.25,
	}
	bad := []func(*ReplayConfig){
		func(c *ReplayConfig) { c.ClusterSizes = nil },
		func(c *ReplayConfig) { c.Records = nil },
		func(c *ReplayConfig) { c.Policy = "XX" },
		func(c *ReplayConfig) { c.ComponentLimit = 0 },
		func(c *ReplayConfig) { c.ExtensionFactor = 0.5 },
		func(c *ReplayConfig) { c.LoadFactor = -1 },
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 500, Service: 10}}
		},
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 0, Service: 10}}
		},
		func(c *ReplayConfig) { c.QueueWeights = make([]float64, 6) },
		func(c *ReplayConfig) { c.QueueWeights = []float64{1, 1} },
		func(c *ReplayConfig) { c.ClusterSizes = []int{32, 32, 0, 32} },
		func(c *ReplayConfig) { c.LoadFactor = math.NaN() },
		func(c *ReplayConfig) { c.LoadFactor = math.Inf(1) },
		func(c *ReplayConfig) { c.ExtensionFactor = math.NaN() },
		func(c *ReplayConfig) { c.ExtensionFactor = math.Inf(1) },
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Submit: -5, Service: 10}}
		},
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Submit: math.NaN(), Service: 10}}
		},
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Submit: math.Inf(1), Service: 10}}
		},
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Service: math.NaN()}}
		},
		func(c *ReplayConfig) {
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Service: math.Inf(1)}}
		},
		func(c *ReplayConfig) {
			// Finite on its own, but overflows to an infinite arrival time
			// once divided by the load factor.
			c.LoadFactor = 1e-300
			c.Records = []dastrace.Record{{ID: 1, Size: 4, Submit: 1e300, Service: 10}}
		},
	}
	for i, f := range bad {
		c := good
		f(&c)
		if _, err := Replay(c); err == nil {
			t.Errorf("bad replay config %d accepted", i)
		}
	}
}

func TestReplayStuckJobDetected(t *testing.T) {
	// A single-component job of 33 can never fit on a 32-processor
	// cluster under SC with capacity 33 shared across... make capacity
	// 40 in one cluster but replay on 4x32 with limit 40: the job keeps
	// one 33-wide component that fits no cluster.
	recs := []dastrace.Record{{ID: 1, Submit: 0, Size: 33, Service: 10}}
	_, err := Replay(ReplayConfig{
		ClusterSizes: []int{32, 32, 32, 32}, Records: recs,
		Policy: "GS", ComponentLimit: 40, ExtensionFactor: 1.25,
	})
	if err == nil {
		t.Error("unschedulable job not reported")
	}
}

func TestReplaySCEquivalentWorkloads(t *testing.T) {
	// SC replay of total requests: mean response must be finite and the
	// utilization equals gross (no extension for single components).
	res, err := Replay(ReplayConfig{
		ClusterSizes: []int{128}, Records: replayRecords(2000),
		Policy: "SC", ComponentLimit: 128, ExtensionFactor: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GrossUtilization-res.NetUtilization) > 1e-12 {
		t.Errorf("SC gross %g != net %g", res.GrossUtilization, res.NetUtilization)
	}
}

func TestReplayPoliciesComparable(t *testing.T) {
	// At a compressed load, LS should beat GS on the same trace (the
	// paper's headline claim, replayed rather than sampled).
	recs := replayRecords(4000)
	get := func(policy string) ReplayResult {
		res, err := Replay(ReplayConfig{
			ClusterSizes: []int{32, 32, 32, 32}, Records: recs,
			Policy: policy, ComponentLimit: 16, ExtensionFactor: 1.25,
			LoadFactor: 6, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gs, ls := get("GS"), get("LS")
	if ls.MeanResponse >= gs.MeanResponse {
		t.Errorf("LS %g should beat GS %g on the compressed trace", ls.MeanResponse, gs.MeanResponse)
	}
}

func TestReplayScheduleExport(t *testing.T) {
	var buf bytes.Buffer
	res, err := Replay(ReplayConfig{
		ClusterSizes:    []int{32, 32, 32, 32},
		Records:         replayRecords(200),
		Policy:          "LS",
		ComponentLimit:  16,
		ExtensionFactor: 1.25,
		ScheduleWriter:  &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != res.Jobs+1 {
		t.Fatalf("%d schedule lines for %d jobs", len(lines), res.Jobs)
	}
	if lines[0] != "id,size,components,arrival,start,finish,clusters" {
		t.Errorf("header %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 7 {
			t.Fatalf("schedule row %q", line)
		}
		arrival, err1 := strconv.ParseFloat(fields[3], 64)
		start, err2 := strconv.ParseFloat(fields[4], 64)
		finish, err3 := strconv.ParseFloat(fields[5], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparsable row %q", line)
		}
		if !(arrival <= start && start < finish) {
			t.Fatalf("time ordering violated in %q", line)
		}
	}
}

// TestReplayEventQueueBounded: a replay keeps one arrival pending, not
// the whole log. Every other pending event is the departure of a running
// job, and each running job holds at least one processor, so the event
// arena never grows beyond the processor count plus one, however long
// the log.
func TestReplayEventQueueBounded(t *testing.T) {
	o := obs.New(nil)
	clusters := []int{32, 32, 32, 32}
	res, err := Replay(ReplayConfig{
		ClusterSizes:    clusters,
		Records:         replayRecords(3000),
		Policy:          "GS",
		ComponentLimit:  16,
		ExtensionFactor: workload.DefaultExtensionFactor,
		LoadFactor:      3,
		Seed:            1,
		Observer:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3000 {
		t.Fatalf("replayed %d jobs", res.Jobs)
	}
	procs := 0
	for _, n := range clusters {
		procs += n
	}
	if slots := o.Metrics.Gauge("sim.pool.arena_slots").Value(); slots > float64(procs+1) {
		t.Errorf("sim.pool.arena_slots = %g for %d records, want at most %d processors + 1", slots, res.Jobs, procs)
	}
}
