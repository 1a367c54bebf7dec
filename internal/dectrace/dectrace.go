// Package dectrace is the run-scoped decision-trace layer: it records, for
// every dispatch, head-miss, reservation and backfill-rejection decision a
// policy takes, the chosen placement, the top-K unchosen alternatives the
// scheduler could have taken instead, and a per-job counterfactual regret —
// how much earlier the job could have started under the best unchosen
// placement it observed while the job waited.
//
// Regret is computed against exactly the availability state the policy
// consulted when it declined the alternative (the live idle vector for the
// FCFS-family policies, the free-capacity profile for the backfilling
// pair); no second simulation runs. The accounting is one map entry per
// waiting job: every decision that reveals a feasible unchosen start folds
// its time into the entry with min, and the job's dispatch resolves the
// entry into regret = start time - earliest alternative start.
//
// The layer follows the simulator's zero-cost-when-off contract: a nil
// *Tracer is inert — every method is nil-safe and returns after one pointer
// compare — so the kernel inner loop is untouched and a run without
// Config.Decisions is bit-identical to one built before this package
// existed. Tracing itself is pure observation: it probes placements only
// into tracer-owned scratch, never mutates cluster or policy state, and
// draws from no random stream, so an enabled run's scheduling outcome is
// bit-identical to a disabled one (pinned by the core guardrail test) and
// its decision records are byte-identical per seed.
package dectrace

import (
	"math"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

// DefaultTopK is the default bound on recorded alternatives per decision.
const DefaultTopK = 3

// FitRules lists every placement rule an alternative probe considers, in a
// fixed deterministic order.
var FitRules = [3]cluster.Fit{cluster.WorstFit, cluster.FirstFit, cluster.BestFit}

// Options configures a tracer.
type Options struct {
	// TopK bounds the number of alternatives recorded per decision
	// (0 = DefaultTopK).
	TopK int
}

// Record kinds.
const (
	// KindDispatch: a job started; Start is the dispatch time, Place the
	// chosen placement, Regret the resolved counterfactual regret, and
	// Alts the placements other fit rules would have chosen right now.
	KindDispatch = "dispatch"
	// KindLocalMiss: a single-component job confined to its own cluster
	// did not fit there while other clusters had room (Alts).
	KindLocalMiss = "localmiss"
	// KindBackfillReject: a backfill candidate fit right now but was
	// rejected because starting it would delay the head's reservation.
	KindBackfillReject = "bfreject"
	// KindReserve: a backfilling policy reserved a future start; Alts are
	// the starts other fit rules found on the same profile.
	KindReserve = "reserve"
)

// Alt is one unchosen alternative: the rule that produced it, the time the
// job could have started under it, and the placement (nil when the
// alternative names a start time only). Place aliases tracer scratch and is
// valid only during the sink callback.
type Alt struct {
	Rule  string
	Start float64
	Place []int
}

// Record is one decision. Place and Alts alias tracer-owned scratch that
// the next decision overwrites: a sink must consume them synchronously
// (the obs JSONL sink serializes them immediately).
type Record struct {
	T      float64
	Kind   string
	Job    int64
	Queue  int
	Start  float64 // +Inf when the decision names no start time
	Place  []int   // chosen placement, nil for miss-kind records
	Regret float64 // dispatch records only
	Alts   []Alt
}

// pend is the per-waiting-job regret accounting.
type pend struct {
	// alt is the earliest alternative start observed for the job while it
	// waited (+Inf until one is seen).
	alt float64
	// missed marks that a miss-kind record was already emitted for this
	// waiting spell; later misses only fold into alt.
	missed bool
	// lastResv dedupes reserve records: one per distinct reserved start.
	hasResv  bool
	lastResv float64
}

// Tracer records one run's decisions. It is single-threaded, like the
// simulation run that owns it. The zero tracer is not valid; use New. All
// methods are nil-safe no-ops, so disabled call sites pay one pointer
// compare.
type Tracer struct {
	// Aggregates, read after the run (core folds them into Result).
	// Decisions counts emitted records of every kind; RegretTotal,
	// RegretMax and RegretDecisions cover dispatch records only
	// (RegretDecisions counts dispatches with nonzero regret).
	Decisions       int
	RegretTotal     float64
	RegretMax       float64
	RegretDecisions int

	topK    int
	sink    func(*Record)
	pending map[int64]pend

	// Reusable record assembly and probe scratch; the chosen placement and
	// the Alt placements are copied into the recPlace/altPlace arenas so
	// records alias only tracer-owned storage and repeated decisions
	// allocate nothing in steady state.
	rec      Record
	recPlace []int
	alts     []Alt
	altPlace []int
	place    []int
	used     []bool
}

// New returns a tracer with the given options and no sink: decisions are
// counted and regret accounted, but no records leave the tracer until
// SetSink.
func New(opts Options) *Tracer {
	k := opts.TopK
	if k <= 0 {
		k = DefaultTopK
	}
	return &Tracer{topK: k, pending: make(map[int64]pend)}
}

// SetSink installs the record consumer (the obs JSONL sink). The *Record
// and its slices are valid only during the call.
func (t *Tracer) SetSink(sink func(*Record)) {
	if t == nil {
		return
	}
	t.sink = sink
}

// ensureScratch sizes the probe buffers for a system of nc clusters.
func (t *Tracer) ensureScratch(nc int) {
	if cap(t.place) < nc {
		t.place = make([]int, nc)
		t.used = make([]bool, nc)
	}
}

// beginAlts resets the alternative accumulator for a new decision.
func (t *Tracer) beginAlts() {
	t.alts = t.alts[:0]
	t.altPlace = t.altPlace[:0]
}

// addAlt appends an alternative, copying the placement into the arena.
func (t *Tracer) addAlt(rule string, start float64, place []int) {
	if len(t.alts) >= t.topK {
		return
	}
	var stable []int
	if place != nil {
		off := len(t.altPlace)
		t.altPlace = append(t.altPlace, place...)
		stable = t.altPlace[off : off+len(place) : off+len(place)]
	}
	t.alts = append(t.alts, Alt{Rule: rule, Start: start, Place: stable})
}

// BeginAlts starts alternative accumulation for a Reserve decision; the
// policy probes its own availability profile and hands each feasible
// alternative to AddAlt.
func (t *Tracer) BeginAlts() {
	if t == nil {
		return
	}
	t.beginAlts()
}

// AddAlt records one profile-probed alternative (Reserve decisions). The
// placement may live in caller scratch; it is copied.
func (t *Tracer) AddAlt(rule string, start float64, place []int) {
	if t == nil {
		return
	}
	t.addAlt(rule, start, place)
}

// observe folds an alternative start into the job's pending entry.
func (t *Tracer) observe(p *pend, at float64) {
	if at < p.alt {
		p.alt = at
	}
}

// take returns the job's pending entry (fresh when absent).
func (t *Tracer) take(job int64) pend {
	if p, ok := t.pending[job]; ok {
		return p
	}
	return pend{alt: math.Inf(1)}
}

// emit publishes the assembled record and counts it. The chosen placement
// may live in policy pass scratch, so it is copied into the tracer's own
// arena first — the record hands the sink tracer-owned storage only.
func (t *Tracer) emit(at float64, kind string, j *workload.Job, start float64, place []int, regret float64) {
	t.Decisions++
	if t.sink == nil {
		return
	}
	var stable []int
	if place != nil {
		t.recPlace = append(t.recPlace[:0], place...)
		stable = t.recPlace
	}
	t.rec = Record{
		T:      at,
		Kind:   kind,
		Job:    j.ID,
		Queue:  j.Queue,
		Start:  start,
		Place:  stable,
		Regret: regret,
		Alts:   t.alts,
	}
	t.sink(&t.rec)
}

// probeFits accumulates, as alternatives, the placements every fit rule
// other than chosen finds on the live idle vector, skipping any identical
// to the given placement. Only unordered and total requests have
// rule-dependent placements; other request types accumulate nothing.
func (t *Tracer) probeFits(j *workload.Job, m *cluster.Multicluster, chosen cluster.Fit, placement []int, at float64) {
	if j.Type != workload.Unordered && j.Type != workload.Total {
		return
	}
	t.ensureScratch(m.NumClusters())
	for _, f := range FitRules {
		if f == chosen {
			continue
		}
		if !m.PlaceInto(j.Components, f, t.place, t.used) {
			continue
		}
		alt := t.place[:len(j.Components)]
		if placement != nil && samePlacement(alt, placement) {
			continue
		}
		t.addAlt(f.String(), at, alt)
	}
}

func samePlacement(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dispatch records a job start: it resolves the job's pending regret,
// probes the placements the unchosen fit rules would take on the same
// pre-allocation idle vector, and emits the dispatch record. The caller
// must invoke it before allocating the placement (core.simulation.Dispatch
// does), so the probe sees exactly the state the policy placed against.
func (t *Tracer) Dispatch(now float64, j *workload.Job, m *cluster.Multicluster, chosen cluster.Fit, placement []int) {
	if t == nil {
		return
	}
	regret := 0.0
	if p, ok := t.pending[j.ID]; ok {
		if p.alt < now {
			regret = now - p.alt
		}
		delete(t.pending, j.ID)
	}
	t.RegretTotal += regret
	if regret > t.RegretMax {
		t.RegretMax = regret
	}
	if regret > 0 {
		t.RegretDecisions++
	}
	t.beginAlts()
	t.probeFits(j, m, chosen, placement, now)
	t.emit(now, KindDispatch, j, now, placement, regret)
}

// LocalMiss records a single-component job that did not fit on the one
// cluster its policy confines it to (LS and LP local queues) while other
// clusters had the capacity — the structural restriction the paper's
// local policies pay for. Alternatives name the feasible other clusters.
func (t *Tracer) LocalMiss(now float64, j *workload.Job, m *cluster.Multicluster, q int) {
	if t == nil {
		return
	}
	size := j.Components[0]
	t.ensureScratch(m.NumClusters())
	t.beginAlts()
	for c := 0; c < m.NumClusters(); c++ {
		if c == q || m.Idle(c) < size {
			continue
		}
		t.place[0] = c
		t.addAlt("cluster", now, t.place[:1])
	}
	if len(t.alts) == 0 {
		return
	}
	p := t.take(j.ID)
	t.observe(&p, now)
	if p.missed {
		t.pending[j.ID] = p
		return
	}
	p.missed = true
	t.pending[j.ID] = p
	t.emit(now, KindLocalMiss, j, math.Inf(1), nil, 0)
}

// BackfillReject records a backfill candidate that fit right now under the
// policy's own rule but was rejected because starting it would delay the
// head's reservation. The rejected placement is itself the unchosen
// alternative; the job could have started at now.
func (t *Tracer) BackfillReject(now float64, j *workload.Job, rule cluster.Fit, placement []int) {
	if t == nil {
		return
	}
	t.beginAlts()
	t.addAlt(rule.String(), now, placement)
	p := t.take(j.ID)
	t.observe(&p, now)
	if p.missed {
		t.pending[j.ID] = p
		return
	}
	p.missed = true
	t.pending[j.ID] = p
	t.emit(now, KindBackfillReject, j, math.Inf(1), nil, 0)
}

// Reserve records a backfilling policy reserving a future start for a
// queued job. Alternatives accumulated since BeginAlts (the starts the
// unchosen fit rules found on the same availability profile) that are
// strictly earlier than the chosen start fold into the job's regret
// accounting. One record is emitted per distinct reserved start: the
// backfilling policies re-derive identical reservations every pass, and
// repeating them would say nothing new.
func (t *Tracer) Reserve(now float64, j *workload.Job, start float64, placement []int) {
	if t == nil {
		return
	}
	p := t.take(j.ID)
	for i := range t.alts {
		if t.alts[i].Start < start {
			t.observe(&p, t.alts[i].Start)
		}
	}
	if p.hasResv && p.lastResv == start {
		t.pending[j.ID] = p
		return
	}
	p.hasResv, p.lastResv = true, start
	t.pending[j.ID] = p
	t.emit(now, KindReserve, j, start, placement, 0)
}
