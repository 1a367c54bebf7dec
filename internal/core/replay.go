package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// ReplayConfig describes a trace-replay simulation: instead of sampling a
// synthetic arrival process, the recorded submit times, sizes and service
// times of a job log are fed through a policy directly. This is the other
// sense of "trace-based" simulation, and lets archive traces (read via
// dastrace.ReadSWF) be replayed against any of the policies.
type ReplayConfig struct {
	// ClusterSizes gives the processors per cluster.
	ClusterSizes []int
	// Records is the job log, in any order; it is replayed by submit
	// time. Replay reads the slice in place, so it must not change while
	// the run is in progress. A record with a non-positive size, a size
	// exceeding the total capacity, a negative or non-finite submit time,
	// or a non-positive or non-finite service time is rejected with an
	// error naming its ID.
	Records []dastrace.Record
	// Policy is one of PolicyNames (as in Config.Policy).
	Policy string
	// Fit is the placement rule.
	Fit cluster.Fit
	// Lookahead is the conservative-backfilling reservation bound (as in
	// Config.Lookahead; 0 = default).
	Lookahead int
	// ComponentLimit splits each recorded size into components, exactly
	// as the synthetic workload does. Use the largest recorded size (or
	// the single-cluster capacity) to replay total requests.
	ComponentLimit int
	// ExtensionFactor multiplies the service time of multi-component
	// jobs (>= 1).
	ExtensionFactor float64
	// LoadFactor compresses (>1) or dilates (<1) the recorded
	// interarrival gaps: arrival time = submit / LoadFactor. The same
	// jobs offered faster produce a higher utilization — the standard
	// way to sweep load in trace-driven studies. 0 means 1.
	LoadFactor float64
	// QueueWeights routes jobs to local queues (nil = balanced).
	QueueWeights []float64
	// Seed drives queue routing (the only randomness in a replay).
	Seed uint64
	// ScheduleWriter, when non-nil, receives one CSV row per completed
	// job: id,size,components,arrival,start,finish,clusters — the data
	// for a Gantt-style visualization of the replayed schedule.
	ScheduleWriter io.Writer
	// Observer, when non-nil, receives the replay's metrics and
	// (optionally) its JSONL event trace.
	Observer *obs.Observer
}

// ReplayResult reports the metrics of a finite replay run.
type ReplayResult struct {
	Policy string
	// Jobs is the number of jobs replayed to completion.
	Jobs int
	// MeanResponse, MedianResponse, P95Response summarize response
	// times over all replayed jobs.
	MeanResponse   float64
	MedianResponse float64
	P95Response    float64
	// MeanSlowdown is the mean bounded slowdown.
	MeanSlowdown float64
	// Makespan is the span from the first arrival to the last departure.
	Makespan float64
	// GrossUtilization and NetUtilization are measured over the
	// makespan.
	GrossUtilization float64
	NetUtilization   float64
	// MaxQueue is the largest number of waiting jobs observed.
	MaxQueue int
}

// loadFactor returns LoadFactor with its default applied.
func (c *ReplayConfig) loadFactor() float64 {
	if c.LoadFactor == 0 {
		return 1
	}
	return c.LoadFactor
}

// validate checks the configuration and every record, and returns the
// policy the configuration names.
func (c *ReplayConfig) validate() (policies.Policy, error) {
	pol, err := c.system().build()
	if err != nil {
		return nil, err
	}
	if len(c.Records) == 0 {
		return nil, fmt.Errorf("core: replay with no records")
	}
	if c.ComponentLimit <= 0 {
		return nil, fmt.Errorf("core: replay component limit %d", c.ComponentLimit)
	}
	if !(c.ExtensionFactor >= 1) || math.IsInf(c.ExtensionFactor, 0) {
		return nil, fmt.Errorf("core: replay extension factor %g must be >= 1 and finite", c.ExtensionFactor)
	}
	load := c.loadFactor()
	if !(load > 0) || math.IsInf(load, 0) {
		return nil, fmt.Errorf("core: replay load factor %g must be positive and finite", c.LoadFactor)
	}
	if len(c.Records) > math.MaxInt32 {
		return nil, fmt.Errorf("core: replay of %d records; at most %d", len(c.Records), math.MaxInt32)
	}
	capacity := 0
	for _, n := range c.ClusterSizes {
		capacity += n
	}
	for _, r := range c.Records {
		switch {
		case r.Size <= 0 || r.Size > capacity:
			return nil, fmt.Errorf("core: replay record %d needs %d of %d processors", r.ID, r.Size, capacity)
		case !(r.Submit >= 0) || math.IsInf(r.Submit/load, 0):
			return nil, fmt.Errorf("core: replay record %d has submit time %g at load factor %g; want a finite, non-negative arrival time",
				r.ID, r.Submit, load)
		case !(r.Service > 0) || math.IsInf(r.Service*c.ExtensionFactor, 0):
			return nil, fmt.Errorf("core: replay record %d has service time %g; want positive and finite", r.ID, r.Service)
		}
	}
	return pol, nil
}

func (c *ReplayConfig) system() system {
	return system{c.ClusterSizes, c.Policy, c.Fit, c.Lookahead, c.QueueWeights}
}

// replayFeed hands out a replay's records in submit order. It keeps one
// arrival event pending, at the next record's arrival time, and each
// record's job is built only when the record is due, in a slot of the
// run's arena that a departed job released, so a run holds the jobs in
// the system, not the whole log.
type replayFeed struct {
	recs []dastrace.Record // ReplayConfig.Records, read in place
	// order lists record indices in submit order, stable on ties; nil
	// when recs is already in order.
	order []int32
	next  int // position in submit order of the next record to submit
	load  float64
}

// newReplayFeed indexes cfg's records in submit order.
func newReplayFeed(cfg *ReplayConfig) *replayFeed {
	recs := cfg.Records
	f := &replayFeed{recs: recs, load: cfg.loadFactor()}
	if !sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].Submit < recs[b].Submit }) {
		f.order = make([]int32, len(recs))
		for i := range f.order {
			f.order[i] = int32(i)
		}
		sort.SliceStable(f.order, func(a, b int) bool { return recs[f.order[a]].Submit < recs[f.order[b]].Submit })
	}
	return f
}

// record returns the k-th record in submit order.
func (f *replayFeed) record(k int) *dastrace.Record {
	if f.order != nil {
		k = int(f.order[k])
	}
	return &f.recs[k]
}

// nextAt returns the arrival time of the next record to submit; ok is
// false once every record has been submitted.
func (f *replayFeed) nextAt() (t float64, ok bool) {
	if f.next == len(f.recs) {
		return 0, false
	}
	return f.record(f.next).Submit / f.load, true
}

// due returns the next record if it arrives at or before now, or nil.
func (f *replayFeed) due(now float64) *dastrace.Record {
	if t, ok := f.nextAt(); !ok || t > now {
		return nil
	}
	r := f.record(f.next)
	f.next++
	return r
}

// Replay runs a trace through a policy and returns its metrics.
func Replay(cfg ReplayConfig) (ReplayResult, error) {
	pol, err := cfg.validate()
	if err != nil {
		return ReplayResult{}, err
	}

	s := newSimulation(cfg.system(), pol, rng.NewSource(cfg.Seed), "replay", noCount, false)
	s.src = replaySource
	s.spec = workload.Spec{
		ComponentLimit:  cfg.ComponentLimit,
		Clusters:        len(cfg.ClusterSizes),
		ExtensionFactor: cfg.ExtensionFactor,
	}
	s.feed = newReplayFeed(&cfg)
	s.observe(cfg.Observer)
	if cfg.ScheduleWriter != nil {
		s.sched = bufio.NewWriter(cfg.ScheduleWriter)
		fmt.Fprintln(s.sched, "id,size,components,arrival,start,finish,clusters")
	}
	s.startMeasuring(0)
	start, _ := s.feed.nextAt() // validate rejects an empty log
	s.eng.Schedule(start, evArrival, nil)
	s.eng.Run()
	s.reportEngine()

	if q := s.pol.Queued(); q > 0 {
		return ReplayResult{}, fmt.Errorf("core: replay ended with %d jobs stuck in queue", q)
	}
	if s.sched != nil {
		if err := s.sched.Flush(); err != nil {
			return ReplayResult{}, fmt.Errorf("core: writing schedule: %w", err)
		}
	}
	res := ReplayResult{
		Policy:         cfg.Policy,
		Jobs:           int(s.respAll.N()),
		MeanResponse:   s.respAll.Mean(),
		MedianResponse: s.cmd.quantiles.Q50.Value(),
		P95Response:    s.cmd.quantiles.Q95.Value(),
		MeanSlowdown:   s.cmd.slowdown.Mean(),
		// A drained replay ends on a departure: the clock stands at the
		// last finish time.
		Makespan: s.eng.Now() - start,
		MaxQueue: s.maxQueue,
	}
	if res.Makespan > 0 {
		capacity := float64(s.m.Capacity())
		res.GrossUtilization = s.grossWork / (capacity * res.Makespan)
		res.NetUtilization = s.netWork / (capacity * res.Makespan)
	}
	s.recycle()
	return res, nil
}

// intsDash renders an int slice as dash-separated values (CSV-safe).
func intsDash(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "-")
}
