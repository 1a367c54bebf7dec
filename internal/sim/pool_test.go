package sim

import (
	"testing"
)

// TestSlotPoolReuse drives many schedule/fire cycles and checks that the
// arena stays at the high-water mark of concurrent events instead of
// growing with the total event count.
func TestSlotPoolReuse(t *testing.T) {
	e := newEngine()
	const width = 8 // concurrent pending events
	var next func()
	fired := 0
	next = func() {
		fired++
		if fired < 10_000 {
			e.ScheduleAfter(1, 0, next)
		}
	}
	for i := 0; i < width; i++ {
		e.ScheduleAfter(1, 0, next)
	}
	e.Run()
	if fired < 10_000 {
		t.Fatalf("fired %d events, want >= 10000", fired)
	}
	if len(e.slots) > 2*width {
		t.Errorf("arena grew to %d slots for %d concurrent events", len(e.slots), width)
	}
	if cap(e.heap) > 4*width {
		t.Errorf("heap capacity %d for %d concurrent events", cap(e.heap), width)
	}
}

// TestCancelRecyclesSlot checks that a cancelled event's slot returns to
// the free list and that its stale handle cannot touch the slot's next
// tenant.
func TestCancelRecyclesSlot(t *testing.T) {
	e := newEngine()
	stale := e.Schedule(5, 0, func() { t.Error("cancelled event ran") })
	if !e.Cancel(stale) {
		t.Fatal("Cancel reported false for a pending event")
	}
	ran := false
	fresh := e.Schedule(3, 0, func() { ran = true })
	if fresh.id != stale.id {
		t.Fatalf("fresh event got slot %d, want recycled slot %d", fresh.id, stale.id)
	}
	// The stale handle must not cancel the recycled slot.
	if e.Cancel(stale) {
		t.Error("stale handle cancelled the slot's new tenant")
	}
	e.Run()
	if !ran {
		t.Error("recycled-slot event did not run")
	}
	if len(e.heap) != 0 {
		t.Errorf("%d heap entries after drain, want 0", len(e.heap))
	}
}

// TestFiredSlotHandleGoesStale checks generation hygiene across firing.
func TestFiredSlotHandleGoesStale(t *testing.T) {
	e := newEngine()
	ev := e.Schedule(1, 0, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Error("Cancel of a fired event reported true")
	}
	// Reuse the slot and verify the old handle stays inert.
	ev2 := e.Schedule(2, 0, func() {})
	if ev2.id != ev.id {
		t.Fatalf("second event got slot %d, want recycled slot %d", ev2.id, ev.id)
	}
	if e.Cancel(ev) {
		t.Error("stale handle cancelled recycled slot")
	}
	if !e.Cancel(ev2) {
		t.Error("recycled event is no longer cancellable")
	}
}

// TestSteadyStateAllocationFree verifies the pooled kernel's core promise:
// once warmed up, schedule+fire cycles perform no heap allocation.
func TestSteadyStateAllocationFree(t *testing.T) {
	e := newEngine()
	var next func()
	next = func() { e.ScheduleAfter(1, 0, next) }
	e.ScheduleAfter(1, 0, next)
	for i := 0; i < 100; i++ { // warm the arena and heap capacity
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %.2f objects/op, want 0", allocs)
	}
}

// TestTypedEventsAllocationFree verifies that Step stays allocation-free
// when the payload is a pointer (the arrival/departure case: payloads are
// *workload.Job).
func TestTypedEventsAllocationFree(t *testing.T) {
	type job struct{ id int }
	j := &job{id: 1}
	e := New()
	e.SetHandler(func(kind int32, payload any) {
		e.ScheduleAfter(1, kind, payload)
	})
	e.ScheduleAfter(1, 7, j)
	for i := 0; i < 100; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("typed Step allocates %.2f objects/op, want 0", allocs)
	}
}

// TestTypedDispatch checks that kinds and payloads arrive intact and in
// (time, seq) order.
func TestTypedDispatch(t *testing.T) {
	e := New()
	type fire struct {
		kind    int32
		payload any
	}
	var got []fire
	e.SetHandler(func(kind int32, payload any) {
		got = append(got, fire{kind, payload})
	})
	p1, p2, p3 := &struct{ n int }{1}, &struct{ n int }{2}, &struct{ n int }{3}
	e.Schedule(2, 1, p2)
	e.Schedule(1, 0, p1)
	e.Schedule(1.5, 2, p3)
	e.Run()
	if len(got) != 3 || got[0].kind != 0 || got[0].payload != any(p1) ||
		got[1].kind != 2 || got[1].payload != any(p3) ||
		got[2].kind != 1 || got[2].payload != any(p2) {
		t.Errorf("typed dispatch got %+v", got)
	}
}

// TestScheduleWithoutHandlerPanics guards the misconfiguration.
func TestScheduleWithoutHandlerPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Schedule without SetHandler did not panic")
		}
	}()
	e.Schedule(1, 0, nil)
}
