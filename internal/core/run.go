package core

import (
	"bufio"
	"fmt"
	"math"
	"sync"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/dist"
	"coalloc/internal/obs"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/stats"
	"coalloc/internal/workload"
	"coalloc/internal/workpool"
)

// Typed event kinds of the simulation loop. Arrivals and departures go
// through the engine's typed-payload path (one handler, job pointer as
// payload) so the simulation schedules no per-event closures.
const (
	evArrival int32 = iota
	evDeparture
	// Fault-injection events (scheduled only when Config.Faults is
	// enabled). The node events carry the cluster index as payload —
	// converting a small int to an interface is allocation-free.
	evNodeFail
	evNodeRepair
	evResubmit
)

// arenaPool recycles job arenas across runs: a finished run resets its
// arena (retaining the consolidated blocks) and returns it, so steady
// replication loops reuse warmed-up block storage instead of growing a
// fresh arena each time. Pooling is safe because Reset invalidates every
// handle and Job/Ints zero their slots before handing them out — a
// recycled arena is observationally identical to a fresh one.
var arenaPool = sync.Pool{New: func() any { return workload.NewArena() }}

// source is the job source that feeds a simulation. Everything else — the
// policy context, Dispatch, the departure path, routing and the
// accumulators — is shared; the source decides only where jobs come from
// and which stop rule ends the run.
type source int8

const (
	// poissonSource samples open-system Poisson arrivals live, or reads
	// them from a shared workload trace (Run). It stops by job count.
	poissonSource source = iota
	// backlogSource keeps a fixed number of jobs queued, topping the queue
	// up after every departure (RunBacklog). It stops at a virtual time.
	backlogSource
	// replaySource submits pre-built record jobs, every one scheduled
	// before the run in submit order (Replay). It runs until the event
	// queue drains.
	replaySource
)

// noCount is the warmup and measure job count of the sources that do not
// stop by job count, so the count rule in depart never fires for them.
const noCount = math.MaxInt

// simulation implements policies.Ctx and carries one run's state.
type simulation struct {
	eng     *sim.Engine
	m       *cluster.Multicluster
	pol     policies.Policy
	spec    workload.Spec
	obs     *obs.Observer
	dec     *dectrace.Tracer
	fit     cluster.Fit
	arena   *workload.Arena
	scratch *policies.Scratch

	// cursor, when non-nil, replays a shared workload trace instead of
	// sampling jobs live; traceIdx is the next entry to consume.
	cursor   *traceCursor
	traceIdx int

	arrivalRate float64
	reqType     workload.RequestType
	arrivals    *rng.Stream
	sizeStream  *rng.Stream
	svcStream   *rng.Stream
	routeStream *rng.Stream
	placeStream *rng.Stream
	routeCDF    []float64

	nextID int64

	warmupJobs  int
	measureJobs int
	finished    int
	measuring   bool

	// Saturation cutoff (Config.SaturationCutoff). The monitor samples
	// the backlog at fixed measured-departure checkpoints — a pure read
	// of scheduler state keyed to the job count, never to wall clock —
	// and stops the engine once growth provably exceeds the end-of-run
	// saturation heuristic. See cutoffDiverged for the firing rule.
	cutoffOn     bool
	cutoffStride int64 // checkpoint spacing in measured departures
	cutoffNext   int64 // next checkpoint (respAll.N() value)
	cutoffPrev   int   // backlog growth at the previous checkpoint
	cutoffFired  bool

	busy        stats.TimeWeighted
	busyPer     []stats.TimeWeighted
	inSystem    stats.TimeWeighted
	respAll     stats.Welford
	respLocal   stats.Welford
	respGlobal  stats.Welford
	respByClass []stats.Welford
	slowdown    stats.Welford
	quantiles   *stats.QuantileSet
	batch       *stats.BatchMeans
	grossWork   float64
	netWork     float64
	measureFrom float64
	queueAtWarm int

	// Fault injection (nil / unused unless Config.Faults is enabled; the
	// fault-free hot path pays one nil compare per departure).
	flt      *faultState //detlint:ignore eventretain the registry inside drops each handle when its departure fires or is cancelled (see faultState)
	faultPol policies.FaultAware
	availCap stats.TimeWeighted

	// The job source, and the state only the backlog and replay sources
	// use. They come last so the fields the Poisson hot path touches stay
	// packed together.
	src source
	// backlog is the queue length backlogSource tops up to.
	backlog int
	// sched, when non-nil, receives the schedule CSV row of every
	// departure (replaySource).
	sched    *bufio.Writer
	maxQueue int // largest queue length right after a replay arrival
}

var _ policies.Ctx = (*simulation)(nil)

// newSimulation wires the part of a run every job source shares; pol
// comes from sys.build. The sampling and routing streams are named
// streams+"/sizes", "/services" and "/routing" — each source keeps its own
// names, so its outputs do not depend on the others. measureJobs arms the
// count stop rule (noCount leaves it off); the warmup count starts off.
func newSimulation(sys system, pol policies.Policy, src *rng.Source, streams string, measureJobs int) *simulation {
	s := &simulation{
		eng:         sim.New(),
		m:           cluster.New(sys.clusters),
		pol:         pol,
		fit:         sys.fit,
		arena:       arenaPool.Get().(*workload.Arena),
		scratch:     policies.NewScratch(len(sys.clusters)),
		sizeStream:  src.Stream(streams + "/sizes"),
		svcStream:   src.Stream(streams + "/services"),
		routeStream: src.Stream(streams + "/routing"),
		routeCDF:    routingCDF(sys.weights, len(sys.clusters)),
		warmupJobs:  noCount,
		measureJobs: measureJobs,
		busyPer:     make([]stats.TimeWeighted, len(sys.clusters)),
		respByClass: make([]stats.Welford, len(SizeClassBounds)),
		batch:       stats.NewBatchMeans(max(int64(measureJobs/30), 1)),
		quantiles:   stats.NewQuantileSet(),
	}
	s.eng.SetHandler(s.handleEvent)
	s.busy.StartAt(0, 0)
	return s
}

// observe attaches the run's observer; nil leaves observability off.
func (s *simulation) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	s.obs = o
	s.eng.SetObserver(o)
	o.SetClock(s.eng.Now)
	if setter, ok := s.pol.(policies.ObserverSetter); ok {
		setter.SetObserver(o)
	}
	// With both tracing and observability on, decision records flow into
	// the run's JSONL trace and metrics. The observer serializes the
	// record synchronously, as the sink contract requires.
	if s.dec != nil {
		s.dec.SetSink(o.Decision)
	}
}

// recycle returns the run's arena to the pool. The run is over and no
// result holds a job handle, so every arena allocation is dead.
func (s *simulation) recycle() {
	s.arena.Reset()
	arenaPool.Put(s.arena)
	s.arena = nil
}

// Cluster returns the multicluster state (policies.Ctx).
func (s *simulation) Cluster() *cluster.Multicluster { return s.m }

// Now returns the current virtual time (policies.Ctx).
func (s *simulation) Now() float64 { return s.eng.Now() }

// Obs returns the run observer, nil when observability is off
// (policies.Ctx).
func (s *simulation) Obs() *obs.Observer { return s.obs }

// Dec returns the run's decision tracer, nil when decision tracing is off
// (policies.Ctx).
func (s *simulation) Dec() *dectrace.Tracer { return s.dec }

// Scratch returns the run's shared scheduling buffers (policies.Ctx).
func (s *simulation) Scratch() *policies.Scratch { return s.scratch }

// Dispatch allocates the placement and schedules the departure
// (policies.Ctx). The placement argument may live in pass scratch, so the
// stable per-job copy is carved from the run's arena.
func (s *simulation) Dispatch(j *workload.Job, placement []int) {
	now := s.eng.Now()
	j.StartTime = now
	j.Placement = s.arena.CopyInts(placement)
	placement = j.Placement
	if j.Type == workload.Flexible {
		// The scheduler chose the split; the extension factor applies
		// only if it actually spans clusters.
		j.FinalizeFlexible(j.Components, s.spec.ExtensionFactor)
	}
	// The tracer must see the pre-allocation idle vector — the exact state
	// the policy placed against — so the hook precedes Alloc. Nil-safe:
	// without -decisions this is one pointer compare.
	s.dec.Dispatch(now, j, s.m, s.fit, placement)
	s.m.Alloc(j.Components, placement)
	s.busy.Set(now, float64(s.m.Busy()))
	for i, c := range placement {
		s.busyPer[c].Add(now, float64(j.Components[i]))
	}
	// A checkpointed resubmission runs only its remainder and charges the
	// utilization integrals pro rata. The branch keeps the fault-free path
	// literally unchanged — Checkpointed is only ever nonzero when the
	// checkpoint fault model aborted this job past its first checkpoint.
	svc, net := j.ExtendedServiceTime, j.ServiceTime
	if j.Checkpointed > 0 {
		svc = j.RemainingTime()
		net = j.ServiceTime * (svc / j.ExtendedServiceTime)
	}
	if s.measuring {
		s.grossWork += float64(j.TotalSize) * svc
		s.netWork += float64(j.TotalSize) * net
	}
	s.obs.Start(now, j.ID, now-j.ArrivalTime, placement)
	ev := s.eng.ScheduleAfter(svc, evDeparture, j)
	if s.flt != nil {
		s.flt.track(j, ev)
	}
}

// handleEvent dispatches the events of the simulation loop by kind.
func (s *simulation) handleEvent(kind int32, payload any) {
	switch kind {
	case evArrival:
		if s.src == replaySource {
			j := payload.(*workload.Job)
			j.Queue = s.routeQueue()
			s.submit(j)
		} else {
			s.submit(s.nextJob())
			s.scheduleArrival()
		}
	case evDeparture:
		s.depart(payload.(*workload.Job))
	case evNodeFail:
		s.nodeFail(payload.(int))
	case evNodeRepair:
		s.nodeRepair(payload.(int))
	case evResubmit:
		s.resubmit(payload.(*workload.Job))
	default:
		panic(fmt.Sprintf("core: unknown event kind %d", kind))
	}
}

// depart releases the job's processors, records metrics, and gives the
// policy a scheduling opportunity.
func (s *simulation) depart(j *workload.Job) {
	now := s.eng.Now()
	j.FinishTime = now
	if s.flt != nil {
		s.flt.untrack(j)
	}
	s.obs.Departure(now, j.ID, j.ResponseTime())
	s.m.Release(j.Components, j.Placement)
	s.busy.Set(now, float64(s.m.Busy()))
	for i, c := range j.Placement {
		s.busyPer[c].Add(now, -float64(j.Components[i]))
	}
	s.inSystem.Add(now, -1)
	s.finished++
	if s.measuring {
		r := j.ResponseTime()
		s.respAll.Add(r)
		s.batch.Add(r)
		s.quantiles.Add(r)
		s.respByClass[SizeClass(j.TotalSize)].Add(r)
		s.slowdown.Add(boundedSlowdown(r, j.ServiceTime))
		if j.Queue == workload.GlobalQueue {
			s.respGlobal.Add(r)
		} else {
			s.respLocal.Add(r)
		}
	}
	if s.sched != nil {
		fmt.Fprintf(s.sched, "%d,%d,%s,%.2f,%.2f,%.2f,%s\n",
			j.ID, j.TotalSize, intsDash(j.Components),
			j.ArrivalTime, j.StartTime, j.FinishTime, intsDash(j.Placement))
	}
	if !s.measuring && s.finished >= s.warmupJobs {
		s.startMeasuring(now)
	} else if s.measuring && s.respAll.N() >= int64(s.measureJobs) {
		s.eng.Stop()
		return
	} else if s.cutoffOn && s.measuring && s.respAll.N() >= s.cutoffNext {
		s.cutoffNext += s.cutoffStride
		if s.cutoffDiverged() {
			s.cutoffFired = true
			s.eng.Stop()
			return
		}
	}
	s.pol.JobDeparted(s, j)
	if s.src == backlogSource {
		s.topUp()
	}
	if s.obs.Enabled() {
		s.obs.QueueDepth(s.pol.Queued())
	}
}

// cutoffThreshold is the backlog growth at which a full-horizon run is
// declared saturated: the end-of-run heuristic in Run fires when growth
// exceeds both MeasureJobs/20 and 50, i.e. beyond max(MeasureJobs/20, 50).
func cutoffThreshold(measureJobs int) int {
	t := measureJobs / 20
	if t < 50 {
		t = 50
	}
	return t
}

// cutoffDiverged is the divergence monitor's firing rule, evaluated at
// checkpoints every cutoffStride measured departures: the backlog growth
// since warmup exceeds twice the end-of-run saturation threshold AND has
// not decreased since the previous checkpoint. A stable operating point
// cannot sustain that — the threshold sits at 5% of the measured horizon,
// far above steady-state queue excursions — so the monitor only ever
// fires on runs the full horizon would flag as saturated anyway (a fired
// run's growth already exceeds both legs of the end-of-run heuristic).
// The check reads scheduler state only: on the no-fire path the run's
// event sequence, stream draws, and statistics are untouched, which is
// the bit-identity guarantee for non-saturated runs.
func (s *simulation) cutoffDiverged() bool {
	queued := s.pol.Queued()
	if s.flt != nil {
		// Match the FinalQueue composition: aborted jobs waiting out
		// their backoff are backlog too.
		queued += s.flt.killedPending
	}
	growth := queued - s.queueAtWarm
	diverged := growth > 2*cutoffThreshold(s.measureJobs) && growth >= s.cutoffPrev
	s.cutoffPrev = growth
	return diverged
}

// startMeasuring resets all accumulators at the end of the warmup period.
func (s *simulation) startMeasuring(now float64) {
	s.measuring = true
	s.measureFrom = now
	s.busy.StartAt(now, float64(s.m.Busy()))
	for c := range s.busyPer {
		s.busyPer[c].StartAt(now, s.busyPer[c].Level())
	}
	s.inSystem.StartAt(now, s.inSystem.Level())
	s.respAll.Reset()
	s.respLocal.Reset()
	s.respGlobal.Reset()
	for i := range s.respByClass {
		s.respByClass[i].Reset()
	}
	s.slowdown.Reset()
	s.quantiles.Reset()
	s.grossWork, s.netWork = 0, 0
	s.queueAtWarm = s.pol.Queued()
	if s.flt != nil {
		s.availCap.StartAt(now, s.availCap.Level())
	}
}

// routeQueue samples a local queue index from the routing distribution.
func (s *simulation) routeQueue() int {
	if len(s.routeCDF) == 1 {
		return 0
	}
	u := s.routeStream.Float64()
	for i, c := range s.routeCDF {
		if u < c {
			return i
		}
	}
	return len(s.routeCDF) - 1
}

// nextJob builds the next job of a sampling source in the run's arena:
// from the shared trace record when one is attached, else drawn live.
func (s *simulation) nextJob() *workload.Job {
	var j *workload.Job
	if s.cursor != nil {
		_, total, svc, queue := s.cursor.at(s.traceIdx)
		j = s.spec.JobFromDraws(s.arena, total, svc)
		j.Queue = queue
		s.traceIdx++
	} else {
		j = s.spec.SampleTypedInto(s.arena, s.reqType, s.sizeStream, s.svcStream, s.placeStream)
		j.Queue = s.routeQueue()
	}
	s.nextID++
	j.ID = s.nextID
	return j
}

// submit stamps an arriving job and hands it to the policy.
func (s *simulation) submit(j *workload.Job) {
	now := s.eng.Now()
	j.ArrivalTime = now
	s.obs.Arrival(now, j.ID, j.TotalSize, j.Components, j.Queue)
	s.inSystem.Add(now, 1)
	s.pol.Submit(s, j)
	if s.src == replaySource {
		if q := s.pol.Queued(); q > s.maxQueue {
			s.maxQueue = q
		}
	}
	if s.obs.Enabled() {
		s.obs.QueueDepth(s.pol.Queued())
	}
}

// scheduleArrival schedules the next Poisson arrival: at the trace's next
// timestamp, or one exponential interarrival from now.
func (s *simulation) scheduleArrival() {
	if s.cursor != nil {
		next, _, _, _ := s.cursor.at(s.traceIdx)
		s.eng.Schedule(next, evArrival, nil)
	} else {
		s.eng.ScheduleAfter(s.arrivals.Exp(s.arrivalRate), evArrival, nil)
	}
}

// topUp refills the backlog source's queue to its target length.
func (s *simulation) topUp() {
	for s.pol.Queued() < s.backlog {
		s.submit(s.nextJob())
	}
}

// Run executes one open-system simulation and returns its metrics.
func Run(cfg Config) (Result, error) {
	cfg.applyDefaults()
	pol, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	var tr *Trace
	if cfg.TraceProvider != nil {
		tr = cfg.TraceProvider(cfg.Seed)
	}
	if tr != nil {
		if err := tr.matches(cfg); err != nil {
			return Result{}, err
		}
	}
	src := rng.NewSource(cfg.Seed)
	s := newSimulation(cfg.system(), pol, src, "core", cfg.MeasureJobs)
	s.spec = cfg.Spec
	s.warmupJobs = cfg.WarmupJobs
	s.arrivalRate = cfg.ArrivalRate
	s.reqType = cfg.RequestType
	s.arrivals = src.Stream("core/arrivals")
	s.placeStream = src.Stream("core/placement")
	if tr != nil {
		s.cursor = newTraceCursor(tr)
	}
	if cfg.SaturationCutoff {
		s.cutoffOn = true
		s.cutoffStride = int64(cutoffThreshold(cfg.MeasureJobs))
		s.cutoffNext = s.cutoffStride
	}
	if cfg.Faults != nil {
		// applyDefaults dropped zero-rate specs and validate vouched that
		// the policy is fault-aware; the type assertion re-checks the
		// invariant at the wiring point.
		s.flt = newFaultState(*cfg.Faults, len(cfg.ClusterSizes), src)
		s.faultPol = pol.(policies.FaultAware)
		s.availCap.StartAt(0, float64(s.m.TotalAvail()))
		for c := 0; c < s.m.NumClusters(); c++ {
			s.eng.ScheduleAfter(s.flt.inj.NextFailure(c), evNodeFail, c)
		}
	}
	if cfg.Decisions != nil {
		// Each run owns its tracer, so parallel replications never share
		// one; aggregates are folded into Result below.
		s.dec = dectrace.New(*cfg.Decisions)
	}
	s.observe(cfg.Observer)
	if s.warmupJobs == 0 {
		// No warmup: measure from time zero. Without this, measurement
		// would only begin at the first departure (startMeasuring is
		// otherwise reached from depart), silently dropping the first
		// job and skewing every time-weighted average.
		s.startMeasuring(0)
	}
	s.scheduleArrival()
	s.eng.Run()
	s.eng.ReportStats()

	now := s.eng.Now()
	window := now - s.measureFrom
	capacity := float64(s.m.Capacity())
	res := Result{
		Policy:             cfg.Policy,
		MeanResponse:       s.respAll.Mean(),
		RespHalfWidth:      s.batch.HalfWidth(),
		MeanResponseLocal:  meanOrNaN(&s.respLocal),
		MeanResponseGlobal: meanOrNaN(&s.respGlobal),
		MedianResponse:     s.quantiles.Q50.Value(),
		P95Response:        s.quantiles.Q95.Value(),
		MeanSlowdown:       s.slowdown.Mean(),
		ResponseBySizeClass: func() []float64 {
			out := make([]float64, len(s.respByClass))
			for i := range s.respByClass {
				out[i] = meanOrNaN(&s.respByClass[i])
			}
			return out
		}(),
		OfferedGross: cfg.ArrivalRate * cfg.Spec.MeanGrossWork() / capacity,
		Jobs:         int(s.respAll.N()),
		FinalQueue:   s.pol.Queued(),
		SimTime:      window,
	}
	if window > 0 {
		res.GrossUtilization = s.busy.Average(now) / capacity
		res.NetUtilization = s.netWork / (capacity * window)
		res.MeanJobsInSystem = s.inSystem.Average(now)
		res.Throughput = float64(res.Jobs) / window
		res.PerClusterUtilization = make([]float64, len(s.busyPer))
		min, max := math.Inf(1), math.Inf(-1)
		for c := range s.busyPer {
			u := s.busyPer[c].Average(now) / float64(s.m.Size(c))
			res.PerClusterUtilization[c] = u
			min = math.Min(min, u)
			max = math.Max(max, u)
		}
		res.UtilizationImbalance = max - min
	}
	if s.dec != nil {
		res.Decisions = s.dec.Decisions
		res.RegretTotal = s.dec.RegretTotal
		res.RegretMax = s.dec.RegretMax
		res.RegretDecisions = s.dec.RegretDecisions
	}
	res.MeanAvailableFraction = 1
	if s.flt != nil {
		st := s.flt.inj.Stats
		res.FailuresInjected = int(st.Failures)
		res.FailuresSkipped = int(st.Skipped)
		res.Repairs = int(st.Repairs)
		res.JobsKilled = int(st.Kills)
		res.Resubmits = int(st.Resubmits)
		res.WorkLost = st.WorkLost
		res.WorkSaved = st.WorkSaved
		// Aborted jobs whose backoff has not elapsed are still in the
		// system: count them with the backlog.
		res.FinalQueue += s.flt.killedPending
		if window > 0 {
			res.MeanAvailableFraction = s.availCap.Average(now) / capacity
		}
	}
	// Saturation heuristic: the backlog grew substantially over the
	// measurement window relative to the number of jobs served.
	growth := res.FinalQueue - s.queueAtWarm
	res.Saturated = growth > res.Jobs/20 && growth > 50
	if s.cutoffFired {
		// The divergence monitor stopped the run early; its firing
		// condition (growth > 2*max(MeasureJobs/20, 50), non-decreasing)
		// strictly implies the heuristic above, so Saturated is already
		// true — recording it explicitly keeps the invariant independent
		// of the heuristic's exact form.
		res.Saturated = true
		res.TruncatedJobs = cfg.MeasureJobs - res.Jobs
		s.obs.SaturationCutoff(res.TruncatedJobs)
	}
	s.recycle()
	return res, nil
}

func meanOrNaN(w *stats.Welford) float64 {
	if w.N() == 0 {
		return math.NaN()
	}
	return w.Mean()
}

// slowdownBound is the short-job service-time floor of the bounded
// slowdown metric (Feitelson et al.): 10 seconds.
const slowdownBound = 10.0

// boundedSlowdown returns max(1, response / max(service, 10 s)).
func boundedSlowdown(response, service float64) float64 {
	d := service
	if d < slowdownBound {
		d = slowdownBound
	}
	s := response / d
	if s < 1 {
		return 1
	}
	return s
}

// RunAtUtilization is a convenience wrapper that sets the arrival rate to
// offer the given gross utilization before running. The workload spec and
// the utilization are validated first, since the arrival rate is derived
// from both.
func RunAtUtilization(cfg Config, grossUtil float64) (Result, error) {
	if err := checkSpec(cfg.Spec, len(cfg.ClusterSizes)); err != nil {
		return Result{}, err
	}
	if !(grossUtil > 0) || math.IsInf(grossUtil, 0) {
		return Result{}, fmt.Errorf("core: gross utilization %g must be positive and finite", grossUtil)
	}
	var capacity int
	for _, s := range cfg.ClusterSizes {
		capacity += s
	}
	if capacity > 0 {
		cfg.ArrivalRate = cfg.Spec.ArrivalRateForGrossUtilization(grossUtil, capacity)
	}
	// Run rejects non-positive cluster sizes itself.
	return Run(cfg)
}

// RunReplications runs n independent replications (seeds Seed,
// Seed+1000003, ...) and merges the results. The response-time half-width
// is the 95% Student-t interval across replication means.
//
// Replications execute concurrently on the shared worker pool (package
// workpool), but the merge consumes their results in seed order, so the
// returned Result is bit-identical to running the replications serially.
func RunReplications(cfg Config, n int) (Result, error) {
	if n <= 0 {
		n = 1
	}
	results := make([]Result, n)
	errs := make([]error, n)
	runReplicationRange(cfg, results, errs, 0, n)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return mergeReplications(results), nil
}

// runReplicationRange runs replications [lo, hi) of cfg into results and
// errs: replication i runs with seed cfg.Seed + i*1000003. They run
// concurrently on the shared worker pool, except with an Observer: it is
// single-threaded and its trace must be a deterministic, byte-identical
// record of the event order, so observed replications run serially, in
// seed order.
func runReplicationRange(cfg Config, results []Result, errs []error, lo, hi int) {
	runOne := func(k int) {
		i := lo + k
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1000003
		results[i], errs[i] = Run(c)
	}
	if cfg.Observer != nil {
		for k := 0; k < hi-lo; k++ {
			runOne(k)
		}
		return
	}
	workpool.Do(hi-lo, runOne)
}

// mergeReplications folds per-replication results, in order, into the
// across-replication summary. Keeping it separate from the (parallel)
// gathering pins down the determinism guarantee: the merge arithmetic sees
// the same values in the same order regardless of completion order.
func mergeReplications(results []Result) Result {
	n := len(results)
	var merged Result
	var resp, respLocal, respGlobal, gross, net stats.Welford
	var median, p95, slow, inSystem, throughput, imbalance stats.Welford
	var availFrac stats.Welford
	byClass := make([]stats.Welford, len(SizeClassBounds))
	var perCluster []stats.Welford
	var offered, simTime float64
	var jobs, finalQueue int
	saturated := false
	for i := 0; i < n; i++ {
		r := results[i]
		merged.FailuresInjected += r.FailuresInjected
		merged.FailuresSkipped += r.FailuresSkipped
		merged.Repairs += r.Repairs
		merged.JobsKilled += r.JobsKilled
		merged.Resubmits += r.Resubmits
		merged.WorkLost += r.WorkLost
		merged.WorkSaved += r.WorkSaved
		merged.Decisions += r.Decisions
		merged.RegretTotal += r.RegretTotal
		if r.RegretMax > merged.RegretMax {
			merged.RegretMax = r.RegretMax
		}
		merged.RegretDecisions += r.RegretDecisions
		availFrac.Add(r.MeanAvailableFraction)
		resp.Add(r.MeanResponse)
		if !math.IsNaN(r.MeanResponseLocal) {
			respLocal.Add(r.MeanResponseLocal)
		}
		if !math.IsNaN(r.MeanResponseGlobal) {
			respGlobal.Add(r.MeanResponseGlobal)
		}
		gross.Add(r.GrossUtilization)
		net.Add(r.NetUtilization)
		if !math.IsNaN(r.MedianResponse) {
			median.Add(r.MedianResponse)
		}
		if !math.IsNaN(r.P95Response) {
			p95.Add(r.P95Response)
		}
		slow.Add(r.MeanSlowdown)
		for ci, v := range r.ResponseBySizeClass {
			if !math.IsNaN(v) {
				byClass[ci].Add(v)
			}
		}
		inSystem.Add(r.MeanJobsInSystem)
		throughput.Add(r.Throughput)
		imbalance.Add(r.UtilizationImbalance)
		if perCluster == nil {
			perCluster = make([]stats.Welford, len(r.PerClusterUtilization))
		}
		for ci, u := range r.PerClusterUtilization {
			perCluster[ci].Add(u)
		}
		offered = r.OfferedGross
		jobs += r.Jobs
		merged.TruncatedJobs += r.TruncatedJobs
		finalQueue += r.FinalQueue
		simTime += r.SimTime
		saturated = saturated || r.Saturated
		merged.Policy = r.Policy
	}
	merged.MeanResponse = resp.Mean()
	merged.RespHalfWidth = resp.HalfWidth()
	merged.MeanResponseLocal = meanOrNaN(&respLocal)
	merged.MeanResponseGlobal = meanOrNaN(&respGlobal)
	merged.MedianResponse = meanOrNaN(&median)
	merged.P95Response = meanOrNaN(&p95)
	merged.MeanSlowdown = slow.Mean()
	merged.ResponseBySizeClass = make([]float64, len(byClass))
	for ci := range byClass {
		merged.ResponseBySizeClass[ci] = meanOrNaN(&byClass[ci])
	}
	merged.MeanJobsInSystem = inSystem.Mean()
	merged.Throughput = throughput.Mean()
	merged.UtilizationImbalance = imbalance.Mean()
	merged.PerClusterUtilization = make([]float64, len(perCluster))
	for ci := range perCluster {
		merged.PerClusterUtilization[ci] = perCluster[ci].Mean()
	}
	merged.GrossUtilization = gross.Mean()
	merged.NetUtilization = net.Mean()
	merged.MeanAvailableFraction = availFrac.Mean()
	merged.OfferedGross = offered
	merged.Jobs = jobs
	merged.FinalQueue = finalQueue
	merged.Saturated = saturated
	merged.SimTime = simTime
	return merged
}

// Sanity helpers -------------------------------------------------------------

// ExpService returns a workload spec for a degenerate M/M/1 system (one
// cluster, one processor, unit-size jobs, exponential service); the
// integration tests validate the whole pipeline on it against
// analysis.MM1MeanResponse.
func ExpService(mu float64) workload.Spec {
	return workload.Spec{
		Sizes:           dist.NewEmpiricalInt([]int{1}, []float64{1}),
		Service:         dist.NewExponential(mu),
		ComponentLimit:  1,
		Clusters:        1,
		ExtensionFactor: 1,
	}
}
