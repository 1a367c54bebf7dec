// Package obs is the run-scoped observability layer of the simulator: a
// deterministic metrics registry (counters, gauges, timer histograms), an
// optional structured JSONL event-trace sink, and a nil-safe Observer that
// the simulation layers report into. It enters a run in one place, the
// simulation in package core, which reports the job and fault events
// and the event kernel's lifetime counters itself and hands the observer
// to the policies through policies.Ctx.Obs; the policies, including their
// queue enable/disable transitions, report only through that handle. The
// event kernel (package sim) and the queues (package queues) do not know
// the observer exists.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. A nil *Observer is a valid observer; every
//     method is nil-safe, and the hot paths of the simulator guard their
//     reporting blocks with a plain pointer nil check, so a run without
//     observability executes no observer code at all. The event kernel
//     (internal/sim) never calls the observer — core reads its lifetime
//     counters once at the end of a run.
//  2. Determinism. Metric values and trace bytes are pure functions of the
//     simulated event sequence: no wall-clock timestamps, no map
//     iteration, hand-rolled float formatting (strconv, shortest form).
//     Two runs at the same seed produce byte-identical traces and
//     identical metric snapshots.
//  3. Single-threaded, like the simulator itself. An Observer belongs to
//     one run; callers that sweep many runs with one shared Observer must
//     run them serially (core.RunReplications and the experiment sweeps do
//     exactly that when an observer is attached).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	n    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Name returns the registration name.
func (c *Counter) Name() string { return c.name }

// Gauge records the last and the largest value of a sampled level, such as
// a queue depth.
type Gauge struct {
	name string
	last float64
	max  float64
	set  bool
}

// Set records a sample.
func (g *Gauge) Set(v float64) {
	if !g.set || v > g.max {
		g.max = v
	}
	g.last = v
	g.set = true
}

// Value returns the last sample (0 before the first Set).
func (g *Gauge) Value() float64 { return g.last }

// Max returns the largest sample (0 before the first Set).
func (g *Gauge) Max() float64 { return g.max }

// Name returns the registration name.
func (g *Gauge) Name() string { return g.name }

// timerBuckets is the number of power-of-two histogram buckets: bucket 0
// holds values below 1, bucket i >= 1 holds [2^(i-1), 2^i). 2^39 seconds
// exceeds any simulated duration by orders of magnitude.
const timerBuckets = 40

// Timer is a histogram of virtual-time durations (or any nonnegative
// values) with power-of-two buckets plus count/sum/min/max. "Timer" is the
// conventional name; the clock it observes is the simulation's virtual
// clock, never the wall clock.
type Timer struct {
	name    string
	buckets [timerBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one value. Negative values are clamped to 0 (they can
// only arise from floating-point noise in time subtraction).
func (t *Timer) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if t.count == 0 || v < t.min {
		t.min = v
	}
	if t.count == 0 || v > t.max {
		t.max = v
	}
	t.count++
	t.sum += v
	t.buckets[timerBucket(v)]++
}

// timerBucket maps a value to its histogram bucket.
func timerBucket(v float64) int {
	if v < 1 {
		return 0
	}
	b := math.Ilogb(v) + 1
	if b >= timerBuckets {
		b = timerBuckets - 1
	}
	return b
}

// Count returns the number of observations.
func (t *Timer) Count() uint64 { return t.count }

// Sum returns the sum of the observations.
func (t *Timer) Sum() float64 { return t.sum }

// Mean returns the mean observation, or 0 when empty.
func (t *Timer) Mean() float64 {
	if t.count == 0 {
		return 0
	}
	return t.sum / float64(t.count)
}

// Min and Max return the extreme observations (0 when empty).
func (t *Timer) Min() float64 { return t.min }
func (t *Timer) Max() float64 { return t.max }

// Bucket returns the count of bucket i (see timerBucket).
func (t *Timer) Bucket(i int) uint64 { return t.buckets[i] }

// Name returns the registration name.
func (t *Timer) Name() string { return t.name }

// Metrics is a registry of named counters, gauges and timers. Metrics are
// registered once (repeat registration returns the existing handle) and
// rendered in sorted name order, so the text snapshot is deterministic.
// The registry deliberately avoids maps: registration is rare and a linear
// scan keeps iteration order trivially reproducible.
type Metrics struct {
	counters []*Counter
	gauges   []*Gauge
	timers   []*Timer
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter returns the counter registered under name, creating it on first
// use.
func (m *Metrics) Counter(name string) *Counter {
	for _, c := range m.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	m.counters = append(m.counters, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	for _, g := range m.gauges {
		if g.name == name {
			return g
		}
	}
	g := &Gauge{name: name}
	m.gauges = append(m.gauges, g)
	return g
}

// Timer returns the timer registered under name, creating it on first use.
func (m *Metrics) Timer(name string) *Timer {
	for _, t := range m.timers {
		if t.name == name {
			return t
		}
	}
	t := &Timer{name: name}
	m.timers = append(m.timers, t)
	return t
}

// WriteText renders a deterministic summary block: every metric on one
// line, sorted by name within its kind, timers followed by their non-empty
// buckets.
func (m *Metrics) WriteText(w io.Writer) error {
	counters := append([]*Counter(nil), m.counters...)
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	gauges := append([]*Gauge(nil), m.gauges...)
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	timers := append([]*Timer(nil), m.timers...)
	sort.Slice(timers, func(i, j int) bool { return timers[i].name < timers[j].name })

	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "counter %-28s %d\n", c.name, c.n); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "gauge   %-28s %s (max %s)\n",
			g.name, fmtG(g.last), fmtG(g.max)); err != nil {
			return err
		}
	}
	for _, t := range timers {
		if _, err := fmt.Fprintf(w, "timer   %-28s count %d  mean %s  min %s  max %s\n",
			t.name, t.count, fmtG(t.Mean()), fmtG(t.min), fmtG(t.max)); err != nil {
			return err
		}
		for i, n := range t.buckets {
			if n == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "        %-28s %d\n", bucketLabel(i), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketLabel renders the half-open range of timer bucket i.
func bucketLabel(i int) string {
	if i == 0 {
		return "  [0, 1)"
	}
	lo := math.Ldexp(1, i-1)
	hi := math.Ldexp(1, i)
	return fmt.Sprintf("  [%s, %s)", fmtG(lo), fmtG(hi))
}

// fmtG renders a float in shortest-roundtrip form — the same formatting
// the trace sink uses, so metric and trace output agree byte for byte.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
