package obs

import (
	"io"

	"coalloc/internal/dectrace"
)

// Observer is one run's observability hub. Every method is safe on a nil
// receiver and does nothing, so simulation code reports unconditionally
// cheap events through nil-safe calls and guards composite reporting
// blocks with a plain `if o != nil` — the disabled path costs one pointer
// compare, allocates nothing, and makes no interface calls.
//
// An Observer is single-threaded, like the simulation run it belongs to.
// Code that runs many simulations against one Observer must run them
// serially (see core.RunReplications and the experiment sweeps).
type Observer struct {
	// Metrics is the run's registry; read it after the run for the
	// summary block, or register additional metrics before it.
	Metrics *Metrics

	trace *Trace

	arrivals   *Counter
	starts     *Counter
	departures *Counter

	passes      *Counter
	headMisses  *Counter
	bfAttempts  *Counter
	bfSuccesses *Counter
	qDisables   *Counter
	qEnables    *Counter

	engEvents    *Counter
	engScheduled *Counter
	arenaSlots   *Gauge
	poolHitRate  *Gauge
	queueDepth   *Gauge

	wait *Timer
	resp *Timer

	// passesSkipped and lookaheadTrunc are registered lazily, on first
	// use, for the same reason as the fault metrics below: WriteText
	// prints every registered metric, and runs where no pass is ever
	// elided or truncated must keep their summary block unchanged.
	passesSkipped  *Counter
	passesRepaired *Counter
	lookaheadTrunc *Counter

	// The saturation-cutoff counters are likewise lazy: the monitor never
	// fires on a stable run, and such a run's metric summary must stay
	// byte-identical with the monitor on.
	cutoffFired *Counter
	cutoffTrunc *Counter

	// decisions is lazy too: runs without decision tracing must keep
	// their summary block bit-identical to builds predating dectrace.
	decisions *Counter

	// Fault metrics are registered lazily, on the first fault event of a
	// run: WriteText prints every registered metric, so eager
	// registration would change the summary block of every fault-free
	// run — which the zero-rate bit-identity guardrail pins.
	fFailures  *Counter
	fSkipped   *Counter
	fRepairs   *Counter
	fKills     *Counter
	fResubmits *Counter
	fCapacity  *Gauge
	fLost      *Timer
	fSaved     *Timer
}

// New returns an Observer with a fresh metrics registry. trace, when
// non-nil, receives the JSONL event trace; pass nil for metrics only.
func New(trace io.Writer) *Observer {
	m := NewMetrics()
	o := &Observer{
		Metrics:      m,
		arrivals:     m.Counter("jobs.arrivals"),
		starts:       m.Counter("jobs.starts"),
		departures:   m.Counter("jobs.departures"),
		passes:       m.Counter("sched.passes"),
		headMisses:   m.Counter("sched.head_misses"),
		bfAttempts:   m.Counter("sched.backfill.attempts"),
		bfSuccesses:  m.Counter("sched.backfill.successes"),
		qDisables:    m.Counter("queues.disables"),
		qEnables:     m.Counter("queues.enables"),
		engEvents:    m.Counter("sim.events"),
		engScheduled: m.Counter("sim.scheduled"),
		arenaSlots:   m.Gauge("sim.pool.arena_slots"),
		poolHitRate:  m.Gauge("sim.pool.hit_rate"),
		queueDepth:   m.Gauge("queues.depth"),
		wait:         m.Timer("jobs.wait"),
		resp:         m.Timer("jobs.response"),
	}
	if trace != nil {
		o.trace = NewTrace(trace)
	}
	return o
}

// Enabled reports whether an observer is attached. Every Observer method
// is already nil-safe, so a guard is never needed for safety — use Enabled
// when the point is to skip computing an expensive argument (a queue-depth
// scan, a composite reporting block) while observability is off. Writing
// the guard as o.Enabled() rather than o != nil marks that intent: the
// call is elidable, not load-bearing.
func (o *Observer) Enabled() bool { return o != nil }

// Arrival records a job arrival: counter, and trace record when tracing.
func (o *Observer) Arrival(at float64, job int64, size int, comps []int, queue int) {
	if o == nil {
		return
	}
	o.arrivals.Inc()
	if o.trace != nil {
		o.trace.Arrive(at, job, size, comps, queue)
	}
}

// Start records a job start (dispatch) with its placement; wait is the
// queueing delay, observed into the jobs.wait timer histogram.
func (o *Observer) Start(at float64, job int64, wait float64, place []int) {
	if o == nil {
		return
	}
	o.starts.Inc()
	o.wait.Observe(wait)
	if o.trace != nil {
		o.trace.Start(at, job, wait, place)
	}
}

// Departure records a job departure with its response time.
func (o *Observer) Departure(at float64, job int64, resp float64) {
	if o == nil {
		return
	}
	o.departures.Inc()
	o.resp.Observe(resp)
	if o.trace != nil {
		o.trace.Depart(at, job, resp)
	}
}

// Pass records one scheduling opportunity (a policy Submit/JobDeparted
// scheduling pass). GS-CONS and SC-CONS count no pass for an opportunity
// that finds their queue empty; every other policy counts one for each.
func (o *Observer) Pass() {
	if o == nil {
		return
	}
	o.passes.Inc()
}

// HeadMiss records a head-of-queue job that did not fit (the FCFS
// blocking event; for multi-queue policies the queue is then disabled).
// GS-CONS and SC-CONS count no miss for a head that can never fit (its
// reservation is +Inf), only for one reserved at a finite future time.
func (o *Observer) HeadMiss(queue int) {
	if o == nil {
		return
	}
	o.headMisses.Inc()
}

// BackfillAttempt records one backfill candidate evaluation.
func (o *Observer) BackfillAttempt() {
	if o == nil {
		return
	}
	o.bfAttempts.Inc()
}

// BackfillAttempts records n backfill candidate evaluations at once — the
// compensation path of an elided scheduling pass, which must leave the
// counters exactly as the full pass would have.
func (o *Observer) BackfillAttempts(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.bfAttempts.Add(uint64(n))
}

// PassSkipped records a scheduling pass elided as a provable no-op. The
// pass still counts under sched.passes — the compensation keeps every
// pre-existing counter identical to a non-eliding run — and the skip is
// additionally recorded under sched.passes_skipped.
func (o *Observer) PassSkipped() {
	if o == nil {
		return
	}
	if o.passesSkipped == nil {
		o.passesSkipped = o.Metrics.Counter("sched.passes_skipped")
	}
	o.passesSkipped.Inc()
}

// PassRepaired records a scheduling pass served from retained reservations
// after re-verifying only the stale prefix — the middle ground between a
// fully elided pass and a full re-derivation.
func (o *Observer) PassRepaired() {
	if o == nil {
		return
	}
	if o.passesRepaired == nil {
		o.passesRepaired = o.Metrics.Counter("sched.passes_repaired")
	}
	o.passesRepaired.Inc()
}

// LookaheadTruncated records a conservative-backfilling pass that stopped
// at the reservation lookahead cap with jobs still waiting beyond it —
// the "no silent caps" signal that the bounded window actually bound.
func (o *Observer) LookaheadTruncated() {
	if o == nil {
		return
	}
	if o.lookaheadTrunc == nil {
		o.lookaheadTrunc = o.Metrics.Counter("sched.lookahead_truncated")
	}
	o.lookaheadTrunc.Inc()
}

// SaturationCutoff records the divergence monitor halting a run early,
// with the number of measured departures it skipped.
func (o *Observer) SaturationCutoff(truncated int) {
	if o == nil {
		return
	}
	if o.cutoffFired == nil {
		o.cutoffFired = o.Metrics.Counter("run.saturation_cutoffs")
		o.cutoffTrunc = o.Metrics.Counter("run.truncated_jobs")
	}
	o.cutoffFired.Inc()
	if truncated > 0 {
		o.cutoffTrunc.Add(uint64(truncated))
	}
}

// Decision records one dectrace decision record: a lazily registered
// counter (runs without decision tracing keep their summary block
// unchanged) and, when tracing, the JSONL decision record. The record's
// slices alias tracer scratch; Trace.Decision serializes them before
// returning. Wired as the tracer's sink by core.
func (o *Observer) Decision(r *dectrace.Record) {
	if o == nil {
		return
	}
	if o.decisions == nil {
		o.decisions = o.Metrics.Counter("sched.decisions")
	}
	o.decisions.Inc()
	if o.trace != nil {
		o.trace.Decision(r)
	}
}

// BackfillSuccess records a backfill candidate actually started.
func (o *Observer) BackfillSuccess() {
	if o == nil {
		return
	}
	o.bfSuccesses.Inc()
}

// QueueDisabled records a queue leaving the scheduling visit order at
// virtual time at.
func (o *Observer) QueueDisabled(at float64, queue int) {
	if o == nil {
		return
	}
	o.qDisables.Inc()
	if o.trace != nil {
		o.trace.Disable(at, queue)
	}
}

// QueueEnabled records a queue rejoining the scheduling visit order at
// virtual time at.
func (o *Observer) QueueEnabled(at float64, queue int) {
	if o == nil {
		return
	}
	o.qEnables.Inc()
	if o.trace != nil {
		o.trace.Enable(at, queue)
	}
}

// QueueDepth samples the number of waiting jobs; the gauge keeps the last
// and the maximum sample.
func (o *Observer) QueueDepth(n int) {
	if o == nil {
		return
	}
	o.queueDepth.Set(float64(n))
}

// EngineStats records the event kernel's lifetime counters at the end of
// a run: events executed, events scheduled, and the slot-arena size. The
// pool hit rate is the fraction of scheduled events served by a recycled
// slot — 1 - arena/scheduled — the steady-state pooling indicator.
func (o *Observer) EngineStats(steps, scheduled uint64, arenaSlots int) {
	if o == nil {
		return
	}
	o.engEvents.Add(steps)
	o.engScheduled.Add(scheduled)
	o.arenaSlots.Set(float64(arenaSlots))
	if scheduled > 0 {
		o.poolHitRate.Set(1 - float64(arenaSlots)/float64(scheduled))
	}
}

// faultMetrics registers the fault metric family on first use.
func (o *Observer) faultMetrics() {
	if o.fFailures != nil {
		return
	}
	m := o.Metrics
	o.fFailures = m.Counter("faults.failures")
	o.fSkipped = m.Counter("faults.skipped")
	o.fRepairs = m.Counter("faults.repairs")
	o.fKills = m.Counter("faults.kills")
	o.fResubmits = m.Counter("faults.resubmits")
	o.fCapacity = m.Gauge("faults.avail_capacity")
	o.fLost = m.Timer("faults.lost_work")
	o.fSaved = m.Timer("faults.saved_work")
}

// NodeFailed records a processor failure on a cluster; avail is the
// system-wide up capacity after the failure.
func (o *Observer) NodeFailed(at float64, cluster, avail int) {
	if o == nil {
		return
	}
	o.faultMetrics()
	o.fFailures.Inc()
	o.fCapacity.Set(float64(avail))
	if o.trace != nil {
		o.trace.Fail(at, cluster, avail)
	}
}

// NodeRepaired records a processor returning to service on a cluster;
// avail is the system-wide up capacity after the repair.
func (o *Observer) NodeRepaired(at float64, cluster, avail int) {
	if o == nil {
		return
	}
	o.faultMetrics()
	o.fRepairs.Inc()
	o.fCapacity.Set(float64(avail))
	if o.trace != nil {
		o.trace.Repair(at, cluster, avail)
	}
}

// FaultSkipped records a failure event that found the cluster entirely
// down already (counter only; nothing changed in the system).
func (o *Observer) FaultSkipped(cluster int) {
	if o == nil {
		return
	}
	o.faultMetrics()
	o.fSkipped.Inc()
}

// JobKilled records a running job aborted by a failure on a cluster, with
// the processor-seconds of discarded service and the processor-seconds
// this dispatch ran that checkpointing preserved (zero without
// checkpointing).
func (o *Observer) JobKilled(at float64, job int64, cluster int, lost, saved float64) {
	if o == nil {
		return
	}
	o.faultMetrics()
	o.fKills.Inc()
	o.fLost.Observe(lost)
	o.fSaved.Observe(saved)
	if o.trace != nil {
		o.trace.Kill(at, job, cluster, lost, saved)
	}
}

// JobResubmitted records an aborted job re-entering its queue after its
// retry backoff; retry is the 1-based abort count.
func (o *Observer) JobResubmitted(at float64, job int64, retry int) {
	if o == nil {
		return
	}
	o.faultMetrics()
	o.fResubmits.Inc()
	if o.trace != nil {
		o.trace.Resubmit(at, job, retry)
	}
}

// Flush writes out any buffered trace records and returns the first trace
// error. It is a no-op without a trace sink.
func (o *Observer) Flush() error {
	if o == nil || o.trace == nil {
		return nil
	}
	return o.trace.Flush()
}

// Close flushes the trace. The underlying writer (a file, usually) is
// owned and closed by the caller, whose Close error must also be checked.
func (o *Observer) Close() error { return o.Flush() }

// WriteText renders the metrics summary block (sorted, deterministic).
func (o *Observer) WriteText(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.Metrics.WriteText(w)
}
