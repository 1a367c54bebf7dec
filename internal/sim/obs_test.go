package sim

import (
	"testing"

	"coalloc/internal/obs"
)

// TestReportStats: the engine's lifetime counters reach the observer only
// through ReportStats — the inner loop never touches the observer — and
// the reported values match the engine's own accessors.
func TestReportStats(t *testing.T) {
	o := obs.New(nil)
	e := newEngine()
	e.SetObserver(o)
	for i := 0; i < 10; i++ {
		e.ScheduleAfter(float64(i), 0, func() {})
	}
	e.Run()
	// Nothing reported until ReportStats runs.
	if v := o.Metrics.Counter("sim.events").Value(); v != 0 {
		t.Fatalf("sim.events = %d before ReportStats, want 0", v)
	}
	e.ReportStats()
	if got, want := o.Metrics.Counter("sim.events").Value(), e.Steps(); got != want {
		t.Errorf("sim.events = %d, want Steps() = %d", got, want)
	}
	if got, want := o.Metrics.Counter("sim.scheduled").Value(), e.Scheduled(); got != want {
		t.Errorf("sim.scheduled = %d, want Scheduled() = %d", got, want)
	}
	if got, want := o.Metrics.Gauge("sim.pool.arena_slots").Value(), float64(len(e.slots)); got != want {
		t.Errorf("sim.pool.arena_slots = %g, want the arena's %g slots", got, want)
	}
}

// TestReportStatsNilObserver: ReportStats with no observer attached is a
// no-op, not a panic.
func TestReportStatsNilObserver(t *testing.T) {
	e := newEngine()
	e.ScheduleAfter(1, 0, func() {})
	e.Run()
	e.ReportStats()
}
