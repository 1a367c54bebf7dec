package main

import (
	"fmt"

	"coalloc/internal/cluster"
	"coalloc/internal/dectrace"
	"coalloc/internal/obs"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// harnessPolicies are the policies whose calls the harness times.
var harnessPolicies = []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS"}

const (
	evArrive int32 = iota
	evDepart
)

// harness is the smallest policies.Ctx that runs a policy: it feeds the
// policy a Poisson stream of jobs on the paper's multicluster, starts what
// the policy dispatches, and times every Submit and JobDeparted call as a
// span. Its own Dispatch work is a child span, so the policy's self time
// excludes it.
type harness struct {
	eng     *sim.Engine
	m       *cluster.Multicluster
	pol     policies.Policy
	scratch *policies.Scratch
	spec    workload.Spec
	rate    float64

	arrivals, sizes, services, routes *rng.Stream

	t                      *tracer
	parent, cur            int
	submitName, departName string

	nextID int64
	left   int // departures still to run
	// record, when set, sees the idle processors of every cluster and the
	// request of each arriving job before the policy does.
	record func(idle, comps []int)
}

var _ policies.Ctx = (*harness)(nil)

func (h *harness) Cluster() *cluster.Multicluster { return h.m }
func (h *harness) Now() float64                   { return h.eng.Now() }
func (h *harness) Obs() *obs.Observer             { return nil }
func (h *harness) Dec() *dectrace.Tracer          { return nil }
func (h *harness) Scratch() *policies.Scratch     { return h.scratch }

// Dispatch starts the job now. The placement may point into pass scratch,
// so the job keeps a copy.
func (h *harness) Dispatch(j *workload.Job, placement []int) {
	id := h.t.begin("harness.Dispatch", h.cur)
	j.StartTime = h.eng.Now()
	j.Placement = append([]int(nil), placement...)
	h.m.Alloc(j.Components, j.Placement)
	h.eng.ScheduleAfter(j.ExtendedServiceTime, evDepart, j)
	h.t.end(id)
}

func newPolicy(name string, clusters int) (policies.Policy, error) {
	switch name {
	case "GS":
		return policies.NewGS(cluster.WorstFit), nil
	case "LS":
		return policies.NewLS(clusters, cluster.WorstFit), nil
	case "LP":
		return policies.NewLP(clusters, cluster.WorstFit), nil
	case "GS-EASY":
		return policies.NewEASY(cluster.WorstFit), nil
	case "GS-CONS":
		return policies.NewConservative(cluster.WorstFit, policies.DefaultLookahead), nil
	}
	return nil, fmt.Errorf("harness: unknown policy %q", name)
}

// runHarness drives policy name at the given gross utilization until jobs
// departures, with spans under parent.
func runHarness(name string, sizes []int, spec workload.Spec, util float64, jobs int, seed uint64,
	t *tracer, parent int, record func(idle, comps []int)) error {
	pol, err := newPolicy(name, len(sizes))
	if err != nil {
		return err
	}
	capacity := 0
	for _, s := range sizes {
		capacity += s
	}
	src := rng.NewSource(seed)
	h := &harness{
		eng: sim.New(), m: cluster.New(sizes), pol: pol, scratch: policies.NewScratch(len(sizes)),
		spec: spec, rate: spec.ArrivalRateForGrossUtilization(util, capacity),
		arrivals: src.Stream("harness/arrivals"), sizes: src.Stream("harness/sizes"),
		services: src.Stream("harness/services"), routes: src.Stream("harness/routing"),
		t: t, parent: parent, submitName: "policies.Submit/" + name, departName: "policies.JobDeparted/" + name,
		left: jobs, record: record,
	}
	h.eng.SetHandler(h.handle)
	h.eng.ScheduleAfter(h.arrivals.Exp(h.rate), evArrive, nil)
	h.eng.Run()
	return nil
}

func (h *harness) handle(kind int32, payload any) {
	switch kind {
	case evArrive:
		j := h.spec.Sample(h.sizes, h.services)
		h.nextID++
		j.ID = h.nextID
		j.ArrivalTime = h.eng.Now()
		j.Queue = h.routes.Intn(h.m.NumClusters())
		if h.record != nil {
			idle := make([]int, h.m.NumClusters())
			for c := range idle {
				idle[c] = h.m.Idle(c)
			}
			h.record(idle, append([]int(nil), j.Components...))
		}
		h.cur = h.t.begin(h.submitName, h.parent)
		h.pol.Submit(h, j)
		h.t.end(h.cur)
		h.eng.ScheduleAfter(h.arrivals.Exp(h.rate), evArrive, nil)
	case evDepart:
		j := payload.(*workload.Job)
		j.FinishTime = h.eng.Now()
		h.m.Release(j.Components, j.Placement)
		if h.left--; h.left == 0 {
			h.eng.Stop()
			return
		}
		h.cur = h.t.begin(h.departName, h.parent)
		h.pol.JobDeparted(h, j)
		h.t.end(h.cur)
	}
}
