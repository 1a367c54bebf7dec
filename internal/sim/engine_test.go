package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newEngine returns an engine whose handler calls func() payloads, so a
// test can write each event's behaviour inline.
func newEngine() *Engine {
	e := New()
	e.SetHandler(func(_ int32, payload any) { payload.(func())() })
	return e
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := newEngine()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, tm := range times {
		tm := tm
		e.Schedule(tm, 0, func() { got = append(got, tm) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events ran out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("ran %d events, want %d", len(got), len(times))
	}
	if e.Now() != 5 {
		t.Errorf("clock at %g, want 5", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := newEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, 0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran in order %v, want FIFO", got)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	e := newEngine()
	var finish float64
	e.ScheduleAfter(1, 0, func() {
		e.ScheduleAfter(2, 0, func() {
			finish = e.Now()
		})
	})
	e.Run()
	if finish != 3 {
		t.Errorf("nested ScheduleAfter finished at %g, want 3", finish)
	}
}

func TestScheduleAtNowRunsAfterCurrent(t *testing.T) {
	e := newEngine()
	var order []string
	e.Schedule(1, 0, func() {
		e.Schedule(1, 0, func() { order = append(order, "same-time") })
		order = append(order, "first")
	})
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "same-time" {
		t.Errorf("order = %v", order)
	}
}

func TestCancel(t *testing.T) {
	e := newEngine()
	ran := false
	ev := e.Schedule(1, 0, func() { ran = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Error("double Cancel returned true")
	}
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := newEngine()
	var got []float64
	var evs []Event
	for _, tm := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		tm := tm
		evs = append(evs, e.Schedule(tm, 0, func() { got = append(got, tm) }))
	}
	e.Cancel(evs[3]) // t=4
	e.Cancel(evs[0]) // t=1
	e.Run()
	want := []float64{2, 3, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := newEngine()
	var ran []float64
	var evs []Event
	for _, tm := range []float64{1, 2, 3, 4, 5, 6} {
		tm := tm
		evs = append(evs, e.Schedule(tm, 0, func() { ran = append(ran, tm) }))
	}
	e.RunUntil(3)
	if len(ran) != 3 {
		t.Errorf("RunUntil(3) ran %d events, want 3", len(ran))
	}
	if e.Now() != 3 {
		t.Errorf("clock at %g after RunUntil(3)", e.Now())
	}
	// The events beyond the bound are still queued: cancelling one works.
	if !e.Cancel(evs[5]) {
		t.Error("event at t=6 is no longer queued after RunUntil(3)")
	}
	e.RunUntil(10)
	if len(ran) != 5 {
		t.Errorf("after second RunUntil ran %d events, want 5", len(ran))
	}
	if e.Now() != 10 {
		t.Errorf("clock at %g, want 10 (advances to the bound)", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := newEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), 0, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop at 3", count)
	}
	// Run resumes.
	e.Run()
	if count != 10 {
		t.Errorf("resumed run finished %d events, want 10", count)
	}
}

func TestPastEventPanics(t *testing.T) {
	e := newEngine()
	e.Schedule(5, 0, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("Schedule in the past did not panic")
		}
	}()
	e.Schedule(1, 0, func() {})
}

func TestNonFiniteTimePanics(t *testing.T) {
	for _, tm := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			e := newEngine()
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%g) did not panic", tm)
				}
			}()
			e.Schedule(tm, 0, func() {})
		}()
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := newEngine()
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAfter(-1) did not panic")
		}
	}()
	e.ScheduleAfter(-1, 0, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := New()
	e.SetHandler(nil)
	defer func() {
		if recover() == nil {
			t.Error("Schedule with a nil handler installed did not panic")
		}
	}()
	e.Schedule(1, 0, nil)
}

func TestSteps(t *testing.T) {
	e := newEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), 0, func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", e.Steps())
	}
}

// TestHeapRandomOrdering is a property test: any batch of events with
// random times runs in nondecreasing time order with FIFO tie-breaks.
func TestHeapRandomOrdering(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := newEngine()
		n := 50 + r.Intn(200)
		type stamp struct {
			time float64
			seq  int
		}
		var got []stamp
		for i := 0; i < n; i++ {
			tm := float64(r.Intn(20)) // many ties
			i := i
			e.Schedule(tm, 0, func() { got = append(got, stamp{tm, i}) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			if got[i].time < got[i-1].time {
				return false
			}
			if got[i].time == got[i-1].time && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return len(got) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHeapRandomCancels interleaves scheduling and cancelling and checks
// that exactly the surviving events run, in order.
func TestHeapRandomCancels(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := newEngine()
		type rec struct {
			ev        Event
			time      float64
			cancelled bool
		}
		var recs []*rec
		ran := make(map[*rec]bool)
		for i := 0; i < 100; i++ {
			tm := r.Float64() * 100
			rc := &rec{time: tm}
			rc.ev = e.Schedule(tm, 0, func() { ran[rc] = true })
			recs = append(recs, rc)
		}
		for _, rc := range recs {
			if r.Float64() < 0.3 {
				rc.cancelled = true
				if !e.Cancel(rc.ev) {
					return false
				}
			}
		}
		e.Run()
		for _, rc := range recs {
			if rc.cancelled == ran[rc] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	type job struct{ id int }
	e := New()
	i := 0
	e.SetHandler(func(kind int32, payload any) {
		i++
		if i < b.N {
			e.ScheduleAfter(1, kind, payload)
		}
	})
	e.ScheduleAfter(1, 0, &job{})
	b.ResetTimer()
	e.Run()
}
