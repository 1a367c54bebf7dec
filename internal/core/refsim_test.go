package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"coalloc/internal/cluster"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// refSim is a reference model of the queueing rules of PAPER.md §1 and
// DESIGN.md §1 and §13, written to be plainly correct rather than fast. It
// is the differential oracle of TestReferenceMatchesReplay. It shares with
// the simulator only the model's primitives: the splitting rule
// (workload.Split), the distinct-cluster placement rule
// (cluster.PlaceVector) and the replay's routing stream. It keeps one
// sorted event list and runs a full scheduling pass after every event.
// There is no arena, no event pool and no pass elision, and conservative
// backfilling rebuilds its profile from the running jobs on every pass.
//
// The tie rules, stated once:
//   - an arrival wins against a departure at the same instant
//     (TestReplayArrivalWinsTie): its Submit pass runs first;
//   - records due at one instant are submitted in submit order, a stable
//     sort of the log by submit time;
//   - departures at one instant leave in the order their jobs started.
type refSim struct {
	kind      string // GS, GS-SPF, LS, LS-sorted, LP, GS-EASY or GS-CONS
	fit       cluster.Fit
	lookahead int
	idle      []int
	now       float64
	events    []refEvent // pending, sorted by refEvent.before

	global    []*refJob   // the global queue, FCFS (GS-SPF: by service time)
	local     [][]*refJob // the local queues of LS and LP
	order     []int       // enabled local queues in visit order
	disabled  []int       // disabled local queues in disable order
	globalOff bool        // LP's global queue is disabled
	running   []*refJob

	// log holds the start, disable and enable records, formatted as the
	// JSONL trace writes them; counts holds the matching counters.
	log    []string
	counts map[string]int
}

// refJob is one replayed job.
type refJob struct {
	id     int64
	arrive float64
	comps  []int
	svc    float64 // extended service time: how long it holds processors
	queue  int     // routed local queue
	place  []int
	finish float64
}

// refEvent is an arrival (depart false) or a departure of job.
type refEvent struct {
	t      float64
	depart bool
	seq    int // submit order of an arrival, start order of a departure
	job    *refJob
}

// before orders the event list: by time; at one instant arrivals before
// departures; then by seq.
func (a refEvent) before(b refEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.depart != b.depart {
		return !a.depart
	}
	return a.seq < b.seq
}

// refKinds maps each policy name to the policy the reference runs. SC,
// SC-EASY and SC-CONS are GS, GS-EASY and GS-CONS on one cluster.
var refKinds = map[string]string{
	"GS": "GS", "GS-SPF": "GS-SPF", "LS": "LS", "LS-sorted": "LS-sorted", "LP": "LP",
	"GS-EASY": "GS-EASY", "GS-CONS": "GS-CONS",
	"SC": "GS", "SC-EASY": "GS-EASY", "SC-CONS": "GS-CONS",
}

// referenceReplay runs cfg's records through the reference model. It
// returns the model after its event list drained; jobs still queued then
// are stuck for good.
func referenceReplay(cfg ReplayConfig) (*refSim, error) {
	kind, ok := refKinds[cfg.Policy]
	if !ok {
		return nil, fmt.Errorf("the reference does not model policy %q", cfg.Policy)
	}
	nc := len(cfg.ClusterSizes)
	r := &refSim{
		kind:      kind,
		fit:       cfg.Fit,
		lookahead: cfg.Lookahead,
		idle:      append([]int(nil), cfg.ClusterSizes...),
		local:     make([][]*refJob, nc),
		counts:    map[string]int{},
	}
	if strings.HasPrefix(cfg.Policy, "SC") {
		r.fit = cluster.WorstFit
	}
	if r.lookahead == 0 {
		r.lookahead = policies.DefaultLookahead
	}
	for q := 0; q < nc; q++ {
		r.order = append(r.order, q)
	}

	// Submit order, and one routing draw per record in that order.
	recs := append(cfg.Records[:0:0], cfg.Records...)
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Submit < recs[b].Submit })
	weights := cfg.QueueWeights
	if weights == nil {
		weights = Balanced(nc)
	}
	var wsum, acc float64
	for _, w := range weights {
		wsum += w
	}
	cdf := make([]float64, nc)
	for i, w := range weights {
		acc += w / wsum
		cdf[i] = acc
	}
	route := rng.NewSource(cfg.Seed).Stream("replay/routing")
	load := cfg.loadFactor()
	for k, rec := range recs {
		j := &refJob{id: int64(rec.ID), arrive: rec.Submit / load, svc: rec.Service}
		j.comps = workload.Split(rec.Size, cfg.ComponentLimit, nc)
		if len(j.comps) > 1 {
			j.svc *= cfg.ExtensionFactor
		}
		if nc > 1 {
			u := route.Float64()
			j.queue = nc - 1
			for i, c := range cdf {
				if u < c {
					j.queue = i
					break
				}
			}
		}
		r.schedule(refEvent{t: j.arrive, seq: k, job: j})
	}

	for len(r.events) > 0 {
		ev := r.events[0]
		r.events = r.events[1:]
		r.now = ev.t
		if ev.depart {
			r.depart(ev.job)
		} else {
			r.submit(ev.job)
		}
	}
	return r, nil
}

// schedule inserts an event into the sorted event list.
func (r *refSim) schedule(ev refEvent) {
	i := sort.Search(len(r.events), func(i int) bool { return ev.before(r.events[i]) })
	r.events = append(r.events, refEvent{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = ev
}

// queued returns the number of waiting jobs.
func (r *refSim) queued() int {
	n := len(r.global)
	for _, q := range r.local {
		n += len(q)
	}
	return n
}

// submit queues an arriving job and runs a pass. LS queues every job
// locally; LP queues single-component jobs locally and the others
// globally; the GS family has only the global queue, and GS-SPF keeps it
// sorted by service time, FCFS among equals.
func (r *refSim) submit(j *refJob) {
	switch {
	case r.kind == "LS" || r.kind == "LS-sorted" || (r.kind == "LP" && len(j.comps) == 1):
		r.local[j.queue] = append(r.local[j.queue], j)
	case r.kind == "GS-SPF":
		i := sort.Search(len(r.global), func(i int) bool { return r.global[i].svc > j.svc })
		r.global = append(r.global[:i], append([]*refJob{j}, r.global[i:]...)...)
	default:
		r.global = append(r.global, j)
	}
	r.pass()
}

// depart releases the job's processors; LS and LP then re-enable their
// disabled queues, and a pass runs.
func (r *refSim) depart(j *refJob) {
	for i, c := range j.place {
		r.idle[c] += j.comps[i]
	}
	for i, rj := range r.running {
		if rj == j {
			r.running = append(r.running[:i], r.running[i+1:]...)
			break
		}
	}
	if r.kind == "LS" || r.kind == "LS-sorted" || r.kind == "LP" {
		r.enableAll()
	}
	r.pass()
}

// enableAll re-enables the disabled queues at a departure. They rejoin
// the visit order in the order they were disabled (LS-sorted: the order
// resets to queue index order), and LP enables its global queue first.
func (r *refSim) enableAll() {
	if r.globalOff {
		r.record("enable", workload.GlobalQueue)
		r.globalOff = false
	}
	for _, q := range r.disabled {
		r.record("enable", q)
	}
	if r.kind == "LS-sorted" {
		r.order = r.order[:0]
		for q := range r.local {
			r.order = append(r.order, q)
		}
	} else {
		r.order = append(r.order, r.disabled...)
	}
	r.disabled = nil
}

// record logs a disable or enable record of queue q.
func (r *refSim) record(ev string, q int) {
	r.counts["queues."+ev+"s"]++
	r.log = append(r.log, fmt.Sprintf(`{"t":%s,"ev":"%s","queue":%d}`, fmtFloat(r.now), ev, q))
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// start runs j now on place.
func (r *refSim) start(j *refJob, place []int) {
	j.place = append([]int(nil), place...)
	for i, c := range j.place {
		if r.idle[c] -= j.comps[i]; r.idle[c] < 0 {
			panic(fmt.Sprintf("reference: job %d oversubscribes cluster %d", j.id, c))
		}
	}
	j.finish = r.now + j.svc
	r.running = append(r.running, j)
	r.schedule(refEvent{t: j.finish, depart: true, seq: r.counts["jobs.starts"], job: j})
	r.counts["jobs.starts"]++
	r.log = append(r.log, fmt.Sprintf(`{"t":%s,"ev":"start","job":%d,"wait":%s,"place":%s}`,
		fmtFloat(r.now), j.id, fmtFloat(r.now-j.arrive), strings.ReplaceAll(fmt.Sprint(j.place), " ", ",")))
}

// placeOn places comps on the idle vector by the fit rule.
func (r *refSim) placeOn(idle, comps []int) ([]int, bool) {
	place := make([]int, len(comps))
	return place, cluster.PlaceVector(idle, comps, r.fit, place, make([]bool, len(idle)))
}

// pass is one scheduling pass of the policy.
func (r *refSim) pass() {
	if r.kind == "GS-CONS" && len(r.global) == 0 {
		return // a conservative pass over an empty queue is not counted
	}
	r.counts["sched.passes"]++
	switch r.kind {
	case "GS", "GS-SPF":
		r.startHeads()
	case "LS", "LS-sorted", "LP":
		r.passLocal()
	case "GS-EASY":
		r.passEASY()
	case "GS-CONS":
		r.passCONS()
	}
}

// startHeads starts the head of the global queue while it fits and
// reports whether the queue drained. A head that does not fit ends it.
func (r *refSim) startHeads() bool {
	for len(r.global) > 0 {
		place, ok := r.placeOn(r.idle, r.global[0].comps)
		if !ok {
			r.counts["sched.head_misses"]++
			return false
		}
		j := r.global[0]
		r.global = r.global[1:]
		r.start(j, place)
	}
	return true
}

// passLocal visits the queues of LS and LP in rounds, starting at most one
// job per queue per round, until a round starts nothing. A queue whose
// head does not fit is disabled; an empty queue is skipped. A
// single-component job in a local queue runs only on that queue's
// cluster. LP visits its global queue first in every round, and only
// while it is enabled and some local queue is empty.
func (r *refSim) passLocal() {
	for progress := true; progress; {
		progress = false
		if r.kind == "LP" && !r.globalOff && len(r.global) > 0 && r.anyLocalEmpty() {
			if place, ok := r.placeOn(r.idle, r.global[0].comps); ok {
				j := r.global[0]
				r.global = r.global[1:]
				r.start(j, place)
				progress = true
			} else {
				r.counts["sched.head_misses"]++
				r.globalOff = true
				r.record("disable", workload.GlobalQueue)
			}
		}
		for _, q := range append([]int(nil), r.order...) {
			if len(r.local[q]) == 0 {
				continue
			}
			head := r.local[q][0]
			place, ok := []int{q}, r.idle[q] >= head.comps[0]
			if len(head.comps) > 1 {
				place, ok = r.placeOn(r.idle, head.comps)
			}
			if !ok {
				r.counts["sched.head_misses"]++
				for i, o := range r.order {
					if o == q {
						r.order = append(r.order[:i], r.order[i+1:]...)
						break
					}
				}
				r.disabled = append(r.disabled, q)
				r.record("disable", q)
				continue
			}
			r.local[q] = r.local[q][1:]
			r.start(head, place)
			progress = true
		}
	}
}

func (r *refSim) anyLocalEmpty() bool {
	for _, q := range r.local {
		if len(q) == 0 {
			return true
		}
	}
	return false
}

// idleAt returns the idle vector at time t when every running job
// releases its processors at its finish time. A non-nil extra is a
// candidate that holds its placement from now until its finish.
func (r *refSim) idleAt(t float64, extra *refJob) []int {
	v := append([]int(nil), r.idle...)
	add := func(j *refJob, sign int) {
		for i, c := range j.place {
			v[c] += sign * j.comps[i]
		}
	}
	for _, j := range r.running {
		if j.finish <= t {
			add(j, +1)
		}
	}
	if extra != nil {
		add(extra, -1)
		if extra.finish <= t {
			add(extra, +1)
		}
	}
	return v
}

// passEASY is EASY backfilling: FCFS starts from the head; then the
// blocked head's shadow time, the earliest finish of a running job after
// which the head fits; then, in FCFS order, every later job that fits now
// starts if the head still fits at its shadow time with that job running.
// A head that never fits blocks the queue.
func (r *refSim) passEASY() {
	if r.startHeads() {
		return
	}
	head := r.global[0]
	times := []float64{r.now}
	for _, j := range r.running {
		times = append(times, j.finish)
	}
	sort.Float64s(times)
	shadow := math.Inf(1)
	for _, t := range times {
		if _, ok := r.placeOn(r.idleAt(t, nil), head.comps); ok {
			shadow = t
			break
		}
	}
	if math.IsInf(shadow, 1) {
		return
	}
	kept := r.global[:1:1]
	for _, j := range r.global[1:] {
		r.counts["sched.backfill.attempts"]++
		place, ok := r.placeOn(r.idle, j.comps)
		if ok {
			cand := &refJob{comps: j.comps, place: place, finish: r.now + j.svc}
			_, ok = r.placeOn(r.idleAt(shadow, cand), head.comps)
		}
		if !ok {
			kept = append(kept, j)
			continue
		}
		r.counts["sched.backfill.successes"]++
		r.start(j, place)
	}
	r.global = kept
}

// refProfile is conservative backfilling's forecast of idle processors:
// the idle vector now plus dated changes, one per running job's release
// and two per reservation window.
type refProfile struct {
	now   float64
	idle  []int
	steps []refStep
}

type refStep struct {
	t            float64
	comps, place []int
	sign         int
}

// at returns the forecast idle vector at time t.
func (p *refProfile) at(t float64) []int {
	v := append([]int(nil), p.idle...)
	for _, s := range p.steps {
		if s.t <= t {
			for i, c := range s.place {
				v[c] += s.sign * s.comps[i]
			}
		}
	}
	return v
}

// earliest returns the earliest change time (or now) from which comps fit
// for dur on the same clusters, with the placement the fit rule picks on
// the window's per-cluster minimum; +Inf when there is none.
func (r *refSim) earliest(p *refProfile, comps []int, dur float64) (float64, []int) {
	starts := []float64{p.now}
	for _, s := range p.steps {
		starts = append(starts, s.t)
	}
	sort.Float64s(starts)
	for _, t := range starts {
		low := p.at(t)
		for _, s := range p.steps {
			if s.t > t && s.t < t+dur {
				for c, v := range p.at(s.t) {
					low[c] = min(low[c], v)
				}
			}
		}
		if place, ok := r.placeOn(low, comps); ok {
			return t, place
		}
	}
	return math.Inf(1), nil
}

// passCONS is conservative backfilling: the first lookahead jobs, in FCFS
// order, each reserve the earliest window the forecast leaves them, and
// those whose window opens now start. The forecast is rebuilt from the
// running jobs; one whose finish has come but whose departure has not yet
// fired (an arrival won the tie) holds its processors in it for good.
func (r *refSim) passCONS() {
	prof := &refProfile{now: r.now, idle: append([]int(nil), r.idle...)}
	for _, j := range r.running {
		if j.finish > r.now {
			prof.steps = append(prof.steps, refStep{j.finish, j.comps, j.place, +1})
		}
	}
	var kept []*refJob
	for idx, j := range r.global {
		if idx >= r.lookahead {
			kept = append(kept, j)
			continue
		}
		if idx > 0 {
			r.counts["sched.backfill.attempts"]++
		}
		t, place := r.earliest(prof, j.comps, j.svc)
		if math.IsInf(t, 1) {
			kept = append(kept, j) // never fits: holds no window
			continue
		}
		prof.steps = append(prof.steps, refStep{t, j.comps, place, -1}, refStep{t + j.svc, j.comps, place, +1})
		if t > r.now {
			if idx == 0 {
				r.counts["sched.head_misses"]++
			}
			kept = append(kept, j)
			continue
		}
		if idx > 0 {
			r.counts["sched.backfill.successes"]++
		}
		r.start(j, place)
	}
	r.global = kept
}
