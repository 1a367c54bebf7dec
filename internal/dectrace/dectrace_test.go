package dectrace

import (
	"math"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

func testJob(id int64, comps ...int) *workload.Job {
	total := 0
	for _, c := range comps {
		total += c
	}
	return &workload.Job{ID: id, TotalSize: total, Components: comps}
}

// capture collects deep copies of emitted records (the live Record aliases
// tracer scratch and is only valid during the sink call).
type capture struct {
	recs []Record
}

func (c *capture) sink(r *Record) {
	cp := *r
	cp.Place = append([]int(nil), r.Place...)
	cp.Alts = make([]Alt, len(r.Alts))
	for i, a := range r.Alts {
		cp.Alts[i] = Alt{Rule: a.Rule, Start: a.Start, Place: append([]int(nil), a.Place...)}
	}
	c.recs = append(c.recs, cp)
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	m := cluster.New([]int{4, 4})
	j := testJob(1, 2)
	// Every method must be a nil-safe no-op.
	tr.SetSink(func(*Record) { t.Error("sink called on nil tracer") })
	tr.BeginAlts()
	tr.AddAlt("FF", 1, []int{0})
	tr.Dispatch(1, j, m, cluster.WorstFit, []int{0})
	tr.LocalMiss(1, j, m, 0)
	tr.BackfillReject(1, j, cluster.WorstFit, []int{0})
	tr.Reserve(1, j, 5, []int{0})
}

func TestNilTracerPathAllocsPerRun(t *testing.T) {
	var tr *Tracer
	m := cluster.New([]int{4, 4})
	j := testJob(1, 2)
	placement := []int{0}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Dispatch(1, j, m, cluster.WorstFit, placement)
		tr.LocalMiss(1, j, m, 0)
		tr.Reserve(1, j, 5, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer path allocates %g per run, want 0", allocs)
	}
}

func TestLocalMissThenDispatchResolvesRegret(t *testing.T) {
	tr := New(Options{})
	var c capture
	tr.SetSink(c.sink)
	m := cluster.New([]int{8, 8})
	j := testJob(7, 2)
	j.Queue = 0

	// The tracer trusts the caller that the job did not fit on its own
	// cluster; the probe finds the other clusters with room right now.
	tr.LocalMiss(10, j, m, 0)
	if len(c.recs) != 1 || c.recs[0].Kind != KindLocalMiss {
		t.Fatalf("records after first miss: %+v", c.recs)
	}
	if got := c.recs[0]; got.Job != 7 || got.Queue != 0 || !math.IsInf(got.Start, 1) || got.Place != nil {
		t.Errorf("localmiss record %+v", got)
	}
	if alts := c.recs[0].Alts; len(alts) != 1 || alts[0].Place[0] != 1 {
		t.Fatalf("localmiss alternatives %+v, want cluster 1", alts)
	}

	// A second miss in the same waiting spell folds silently: it cannot
	// reveal an earlier start than the first.
	tr.LocalMiss(12, j, m, 0)
	if len(c.recs) != 1 {
		t.Fatalf("second miss of the spell emitted a record: %+v", c.recs)
	}

	tr.Dispatch(25, j, m, cluster.WorstFit, []int{0})
	if len(c.recs) != 2 || c.recs[1].Kind != KindDispatch {
		t.Fatalf("records after dispatch: %+v", c.recs)
	}
	// Regret = dispatch time - earliest alternative start = 25 - 10.
	if got := c.recs[1].Regret; got != 15 {
		t.Errorf("regret = %g, want 15", got)
	}
	if tr.RegretTotal != 15 || tr.RegretMax != 15 || tr.RegretDecisions != 1 {
		t.Errorf("aggregates total=%g max=%g n=%d", tr.RegretTotal, tr.RegretMax, tr.RegretDecisions)
	}
	if tr.Decisions != 2 {
		t.Errorf("Decisions = %d, want 2", tr.Decisions)
	}

	// The pending entry was consumed: a re-dispatch sees no stale regret.
	tr.Dispatch(30, j, m, cluster.WorstFit, []int{0})
	if tr.RegretTotal != 15 {
		t.Errorf("stale pending entry leaked regret: total %g", tr.RegretTotal)
	}
}

func TestDispatchWithoutMissHasZeroRegret(t *testing.T) {
	tr := New(Options{})
	m := cluster.New([]int{8, 8})
	j := testJob(1, 2)
	tr.Dispatch(5, j, m, cluster.WorstFit, []int{0})
	if tr.RegretTotal != 0 || tr.RegretDecisions != 0 {
		t.Errorf("regret without any observed alternative: total=%g n=%d", tr.RegretTotal, tr.RegretDecisions)
	}
	if tr.Decisions != 1 {
		t.Errorf("Decisions = %d, want 1", tr.Decisions)
	}
}

func TestLocalMissNamesOtherClusters(t *testing.T) {
	tr := New(Options{})
	var c capture
	tr.SetSink(c.sink)
	m := cluster.New([]int{4, 4, 4})
	m.Alloc([]int{3}, []int{0}) // cluster 0 nearly full
	j := testJob(3, 2)

	tr.LocalMiss(10, j, m, 0)
	if len(c.recs) != 1 || c.recs[0].Kind != KindLocalMiss {
		t.Fatalf("records: %+v", c.recs)
	}
	alts := c.recs[0].Alts
	if len(alts) != 2 {
		t.Fatalf("alts = %+v, want clusters 1 and 2", alts)
	}
	for i, want := range []int{1, 2} {
		if alts[i].Rule != "cluster" || alts[i].Start != 10 || len(alts[i].Place) != 1 || alts[i].Place[0] != want {
			t.Errorf("alt %d = %+v, want cluster %d at t=10", i, alts[i], want)
		}
	}

	// No feasible other cluster: nothing recorded, nothing pending.
	big := testJob(4, 9)
	tr.LocalMiss(11, big, m, 0)
	if len(c.recs) != 1 {
		t.Errorf("infeasible local miss emitted a record: %+v", c.recs)
	}
	tr.Dispatch(20, big, m, cluster.WorstFit, []int{1})
	if tr.RegretTotal != 0 {
		t.Errorf("infeasible miss accrued regret %g", tr.RegretTotal)
	}
}

func TestBackfillRejectRegret(t *testing.T) {
	tr := New(Options{})
	var c capture
	tr.SetSink(c.sink)
	m := cluster.New([]int{8})
	j := testJob(9, 2)

	tr.BackfillReject(100, j, cluster.WorstFit, []int{0})
	if len(c.recs) != 1 || c.recs[0].Kind != KindBackfillReject {
		t.Fatalf("records: %+v", c.recs)
	}
	a := c.recs[0].Alts
	if len(a) != 1 || a[0].Rule != "WF" || a[0].Start != 100 || len(a[0].Place) != 1 {
		t.Fatalf("reject alt %+v, want the rejected WF placement at t=100", a)
	}
	// Repeated rejections of the same waiting spell stay silent.
	tr.BackfillReject(105, j, cluster.WorstFit, []int{0})
	if len(c.recs) != 1 {
		t.Fatalf("repeat rejection emitted: %+v", c.recs)
	}
	tr.Dispatch(130, j, m, cluster.WorstFit, []int{0})
	if tr.RegretTotal != 30 {
		t.Errorf("regret = %g, want 130-100 = 30", tr.RegretTotal)
	}
}

func TestReserveDedupAndRegret(t *testing.T) {
	tr := New(Options{})
	var c capture
	tr.SetSink(c.sink)
	m := cluster.New([]int{8})
	j := testJob(5, 4)

	// First reservation: an alternative rule found an earlier hole.
	tr.BeginAlts()
	tr.AddAlt("FF", 40, []int{0})
	tr.AddAlt("BF", 90, []int{0}) // later than the chosen start: ignored
	tr.Reserve(10, j, 60, []int{0})
	if len(c.recs) != 1 || c.recs[0].Kind != KindReserve || c.recs[0].Start != 60 {
		t.Fatalf("records: %+v", c.recs)
	}

	// The same reservation re-derived next pass is deduped.
	tr.BeginAlts()
	tr.AddAlt("FF", 40, []int{0})
	tr.Reserve(12, j, 60, []int{0})
	if len(c.recs) != 1 {
		t.Fatalf("re-derived reservation emitted: %+v", c.recs)
	}

	// A different start is a new decision.
	tr.BeginAlts()
	tr.Reserve(14, j, 55, []int{0})
	if len(c.recs) != 2 || c.recs[1].Start != 55 {
		t.Fatalf("moved reservation: %+v", c.recs)
	}

	// Dispatch at 50: regret against the earliest alternative (40).
	tr.Dispatch(50, j, m, cluster.WorstFit, []int{0})
	if tr.RegretTotal != 10 {
		t.Errorf("regret = %g, want 50-40 = 10", tr.RegretTotal)
	}
}

func TestDispatchBeforeAlternativeClampsToZero(t *testing.T) {
	tr := New(Options{})
	j := testJob(2, 2)
	m := cluster.New([]int{8})
	// The best alternative start (70) is later than the actual dispatch
	// (50): the policy beat its counterfactual, regret clamps to zero.
	tr.BeginAlts()
	tr.AddAlt("FF", 70, nil)
	tr.Reserve(10, j, 80, nil)
	tr.Dispatch(50, j, m, cluster.WorstFit, []int{0})
	if tr.RegretTotal != 0 || tr.RegretDecisions != 0 {
		t.Errorf("negative regret not clamped: total=%g n=%d", tr.RegretTotal, tr.RegretDecisions)
	}
}

func TestTopKBoundsAlternatives(t *testing.T) {
	tr := New(Options{TopK: 1})
	var c capture
	tr.SetSink(c.sink)
	j := testJob(1, 2)
	tr.BeginAlts()
	tr.AddAlt("FF", 10, []int{0})
	tr.AddAlt("BF", 11, []int{1})
	tr.AddAlt("WF", 12, []int{2})
	tr.Reserve(5, j, 100, nil)
	if len(c.recs) != 1 || len(c.recs[0].Alts) != 1 {
		t.Fatalf("topK=1 records: %+v", c.recs)
	}
	if c.recs[0].Alts[0].Rule != "FF" {
		t.Errorf("kept alt %+v, want the first (FF)", c.recs[0].Alts[0])
	}
	if New(Options{}).topK != DefaultTopK {
		t.Errorf("default TopK = %d, want %d", New(Options{}).topK, DefaultTopK)
	}
}

func TestAddAltCopiesCallerScratch(t *testing.T) {
	tr := New(Options{})
	var got []int
	tr.SetSink(func(r *Record) {
		got = append([]int(nil), r.Alts[0].Place...)
	})
	j := testJob(1, 2)
	scratch := []int{3}
	tr.BeginAlts()
	tr.AddAlt("FF", 10, scratch)
	scratch[0] = 99 // the caller reuses its scratch before the emit
	tr.Reserve(5, j, 100, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("alt placement %v, want the value at AddAlt time [3]", got)
	}
}

func TestProbeFitsSkipsNonPlaceableRequestTypes(t *testing.T) {
	tr := New(Options{})
	var c capture
	tr.SetSink(c.sink)
	m := cluster.New([]int{8, 8})
	j := testJob(1, 2, 2)
	j.Type = workload.Ordered // placement is fixed; no rule alternatives
	tr.Dispatch(20, j, m, cluster.WorstFit, []int{0, 1})
	if len(c.recs) != 1 || len(c.recs[0].Alts) != 0 {
		t.Fatalf("ordered dispatch: %+v", c.recs)
	}
}

func TestSinklessTracerStillAggregates(t *testing.T) {
	tr := New(Options{})
	m := cluster.New([]int{8, 8})
	j := testJob(1, 2)
	tr.LocalMiss(10, j, m, 1)
	tr.Dispatch(25, j, m, cluster.WorstFit, []int{1})
	if tr.Decisions != 2 {
		t.Errorf("Decisions = %d, want 2 (counted even without a sink)", tr.Decisions)
	}
	if tr.RegretTotal != 15 {
		t.Errorf("RegretTotal = %g, want 15", tr.RegretTotal)
	}
}
