package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"coalloc/internal/dectrace"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Arrival(0, 1, 16, []int{16}, 0)
	o.Start(0, 1, 0, []int{0})
	o.Departure(1, 1, 1)
	o.Pass()
	o.HeadMiss(0)
	o.BackfillAttempt()
	o.BackfillSuccess()
	o.QueueDisabled(0, 0)
	o.QueueEnabled(0, 0)
	o.QueueDepth(3)
	o.EngineStats(10, 10, 2)
	if err := o.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := o.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
}

func TestRegistryDedupAndOrder(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("b.second")
	b := m.Counter("a.first")
	if m.Counter("b.second") != a {
		t.Fatal("re-registration returned a new counter")
	}
	a.Add(2)
	b.Inc()
	if m.Gauge("g") != m.Gauge("g") {
		t.Fatal("re-registration returned a new gauge")
	}
	if m.Timer("t") != m.Timer("t") {
		t.Fatal("re-registration returned a new timer")
	}
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "a.first") > strings.Index(out, "b.second") {
		t.Errorf("counters not sorted by name:\n%s", out)
	}
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "counter b.second") {
		t.Errorf("missing counters:\n%s", out)
	}
}

func TestGaugeTracksLastAndMax(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 7 {
		t.Errorf("last=%g max=%g, want 2 and 7", g.Value(), g.Max())
	}
	// A negative first sample must become the max, not be hidden by the
	// zero value.
	var n Gauge
	n.Set(-4)
	if n.Max() != -4 {
		t.Errorf("negative first sample: max=%g, want -4", n.Max())
	}
}

func TestTimerBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {0.999, 0},
		{1, 1}, {1.5, 1}, {2, 2}, {3.99, 2}, {4, 3},
		{1024, 11},
		{math.MaxFloat64, timerBuckets - 1},
	}
	for _, c := range cases {
		if got := timerBucket(c.v); got != c.want {
			t.Errorf("timerBucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	var tm Timer
	tm.Observe(0.5)
	tm.Observe(3)
	tm.Observe(3)
	tm.Observe(-1) // clamped to 0
	if tm.Count() != 4 || tm.Bucket(0) != 2 || tm.Bucket(2) != 2 {
		t.Errorf("buckets: count=%d b0=%d b2=%d", tm.Count(), tm.Bucket(0), tm.Bucket(2))
	}
	if tm.Min() != 0 || tm.Max() != 3 {
		t.Errorf("min=%g max=%g", tm.Min(), tm.Max())
	}
	if got, want := tm.Mean(), 6.5/4; got != want {
		t.Errorf("mean=%g want %g", got, want)
	}
}

func TestTraceBytes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.Arrive(0, 1, 16, []int{8, 8}, 0)
	tr.Start(0.5, 1, 0.5, []int{0, 2})
	tr.Depart(277.25, 1, 277.25)
	tr.Disable(277.25, 1)
	tr.Enable(300, 1)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":0,"ev":"arrive","job":1,"size":16,"comps":[8,8],"queue":0}
{"t":0.5,"ev":"start","job":1,"wait":0.5,"place":[0,2]}
{"t":277.25,"ev":"depart","job":1,"resp":277.25}
{"t":277.25,"ev":"disable","queue":1}
{"t":300,"ev":"enable","queue":1}
`
	if got := buf.String(); got != want {
		t.Errorf("trace bytes:\n got %q\nwant %q", got, want)
	}
}

// failWriter fails after n bytes, modelling a full disk.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write: disk full" }

func TestTraceStickyError(t *testing.T) {
	tr := NewTrace(&failWriter{n: 8})
	for i := 0; i < 100000; i++ {
		tr.Depart(float64(i), int64(i), 1)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
	if tr.Err() == nil {
		t.Fatal("Err lost the sticky error")
	}
}

func TestObserverMetricsFlow(t *testing.T) {
	o := New(nil)
	o.Arrival(0, 1, 16, []int{16}, 0)
	o.Start(1, 1, 1, []int{0})
	o.Departure(2, 1, 2)
	o.Pass()
	o.Pass()
	o.HeadMiss(0)
	o.BackfillAttempt()
	o.BackfillSuccess()
	o.QueueDisabled(2, 2)
	o.QueueEnabled(2, 2)
	o.QueueDepth(5)
	o.QueueDepth(3)
	o.EngineStats(100, 101, 3)
	m := o.Metrics
	checks := []struct {
		name string
		want uint64
	}{
		{"jobs.arrivals", 1}, {"jobs.starts", 1}, {"jobs.departures", 1},
		{"sched.passes", 2}, {"sched.head_misses", 1},
		{"sched.backfill.attempts", 1}, {"sched.backfill.successes", 1},
		{"queues.disables", 1}, {"queues.enables", 1},
		{"sim.events", 100}, {"sim.scheduled", 101},
	}
	for _, c := range checks {
		if got := m.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if g := m.Gauge("queues.depth"); g.Value() != 3 || g.Max() != 5 {
		t.Errorf("queues.depth last=%g max=%g", g.Value(), g.Max())
	}
	if hr := m.Gauge("sim.pool.hit_rate").Value(); hr <= 0.9 || hr > 1 {
		t.Errorf("pool hit rate %g", hr)
	}
	if w := m.Timer("jobs.wait"); w.Count() != 1 || w.Sum() != 1 {
		t.Errorf("jobs.wait count=%d sum=%g", w.Count(), w.Sum())
	}
}

// TestObserverTransitionsCarryTime: queue transitions are recorded at the
// virtual time the caller passes, like every other trace hook.
func TestObserverTransitionsCarryTime(t *testing.T) {
	var buf bytes.Buffer
	o := New(&buf)
	o.QueueDisabled(42.5, 3)
	o.QueueEnabled(50, -1)
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":42.5,"ev":"disable","queue":3}` + "\n" + `{"t":50,"ev":"enable","queue":-1}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestDecisionTraceBytes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.Decision(&dectrace.Record{
		T: 300, Kind: dectrace.KindDispatch, Job: 4, Queue: -1,
		Start: 300, Place: []int{0, 2}, Regret: 23.5,
		Alts: []dectrace.Alt{
			{Rule: "FF", Start: 300, Place: []int{0, 1}},
			{Rule: "BF", Start: 301.5},
		},
	})
	// Miss-kind records name no start (it is +Inf) and no placement;
	// regret is a dispatch-only field.
	tr.Decision(&dectrace.Record{
		T: 310, Kind: dectrace.KindLocalMiss, Job: 5, Queue: 2,
		Start: math.Inf(1), Regret: 99, // Regret must not leak into the record
		Alts: []dectrace.Alt{{Rule: "cluster", Start: 310, Place: []int{3}}},
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":300,"ev":"decision","kind":"dispatch","job":4,"queue":-1,"start":300,"place":[0,2],"regret":23.5,"alts":[{"rule":"FF","start":300,"place":[0,1]},{"rule":"BF","start":301.5}]}
{"t":310,"ev":"decision","kind":"localmiss","job":5,"queue":2,"alts":[{"rule":"cluster","start":310,"place":[3]}]}
`
	if got := buf.String(); got != want {
		t.Errorf("decision bytes:\n got %q\nwant %q", got, want)
	}
}

func TestDecisionStickyWriteError(t *testing.T) {
	tr := NewTrace(&failWriter{n: 8})
	rec := dectrace.Record{T: 1, Kind: dectrace.KindDispatch, Job: 1, Start: 1, Place: []int{0}}
	for i := 0; i < 100000; i++ {
		rec.T = float64(i)
		tr.Decision(&rec)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush swallowed the decision-path write error")
	}
	if tr.Err() == nil {
		t.Fatal("Err lost the sticky error")
	}
}

func TestObserverDecisionLazyMetricAndClose(t *testing.T) {
	// Without any decision, the summary block must not mention the
	// counter — runs without tracing stay bit-identical.
	o := New(nil)
	o.Arrival(0, 1, 16, []int{16}, 0)
	var before bytes.Buffer
	if err := o.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.String(), "sched.decisions") {
		t.Error("sched.decisions registered without any decision")
	}

	rec := dectrace.Record{T: 1, Kind: dectrace.KindDispatch, Job: 1, Start: 1, Place: []int{0}}
	o.Decision(&rec)
	o.Decision(&rec)
	var after bytes.Buffer
	if err := o.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.String(), "sched.decisions") {
		t.Error("sched.decisions missing after decisions were recorded")
	}

	// A failing trace writer must surface through Observer.Close — the
	// commands exit nonzero on it instead of truncating silently.
	fo := New(&failWriter{n: 8})
	for i := 0; i < 100000; i++ {
		rec.T = float64(i)
		fo.Decision(&rec)
	}
	if err := fo.Close(); err == nil {
		t.Fatal("Observer.Close swallowed the decision write error")
	}

	// Nil-safety of the decision path.
	var nilObs *Observer
	nilObs.Decision(&rec)
}
