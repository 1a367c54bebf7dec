// Package sim is a small discrete-event simulation kernel.
//
// It plays the role the commercial CSIM18 package plays in the paper: it
// maintains a virtual clock and an ordered set of pending events, and runs
// event handlers in nondecreasing time order. The kernel is deliberately
// event-oriented rather than process-oriented: the multicluster model needs
// only job arrivals and departures, and an explicit event loop keeps the
// scheduler-policy code free of goroutines and therefore exactly
// reproducible.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking on a monotone sequence number), which the
// queueing policies rely on: a departure handler must release processors
// before the scheduling pass triggered by the same instant's arrival runs.
//
// The kernel is allocation-free on its steady-state hot path. Event state
// lives in a slot arena recycled through a free list, the pending-event
// heap holds small value entries rather than pointers, and cancellation is
// lazy (a cancelled event's heap entry is dropped when it reaches the top),
// so push and pop never maintain back-pointers from events into the heap.
// Simulations that schedule one event per fired event — the open-system
// arrival/departure loop — therefore run without any per-event heap
// allocation once the arena has warmed up.
package sim

import (
	"errors"
	"fmt"
	"math"

	"coalloc/internal/obs"
)

// Event is a handle to a scheduled callback. It is a small value (copy it
// freely); the zero value is not useful — obtain events from At, After,
// Schedule or ScheduleAfter. Handles are generation-checked: once the event
// fires or is cancelled, the handle goes stale and Cancel/Pending report
// false even if the kernel has recycled the underlying slot.
type Event struct {
	e    *Engine
	id   int32
	gen  uint32
	time float64
}

// Time returns the virtual time at which the event fires (or fired).
func (ev Event) Time() float64 { return ev.time }

// Pending reports whether the event is still queued.
func (ev Event) Pending() bool {
	if ev.e == nil {
		return false
	}
	sl := &ev.e.slots[ev.id]
	return sl.gen == ev.gen && sl.live
}

// slot is the arena record behind one scheduled event. Exactly one of fn
// and (kind, payload) is meaningful: closure events carry fn, typed events
// carry a kind tag and payload for the engine-wide handler.
type slot struct {
	fn      func()
	payload any
	kind    int32
	gen     uint32 // bumped on release; stale handles/entries compare !=
	next    int32  // free-list link, -1 = end
	live    bool
}

// entry is one pending-event heap element: the full ordering key plus the
// slot reference. Keeping the key inline means heap sifts never chase slot
// pointers, and keeping gen means a popped entry can detect that its slot
// was cancelled (and possibly recycled) without any heap-position
// bookkeeping on the slot.
type entry struct {
	time float64
	seq  uint64
	id   int32
	gen  uint32
}

// Engine is the simulation executive: a virtual clock plus a pending-event
// queue. Engines are not safe for concurrent use; a simulation run is a
// single-threaded computation.
type Engine struct {
	now     float64
	heap    []entry
	slots   []slot
	free    int32 // free-list head into slots, -1 = empty
	live    int   // pending (scheduled and not cancelled) events
	seq     uint64
	stopped bool
	steps   uint64
	handler func(kind int32, payload any)
	obs     *obs.Observer
}

// New returns an Engine with the clock at zero.
func New() *Engine {
	return &Engine{free: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Scheduled returns the number of events ever scheduled (fired, pending or
// cancelled).
func (e *Engine) Scheduled() uint64 { return e.seq }

// ArenaSize returns the number of slots in the event arena — the peak
// pending-event population. Scheduled events beyond this count were served
// by recycled slots (the pool steady state).
func (e *Engine) ArenaSize() int { return len(e.slots) }

// SetObserver attaches a run observer. The kernel never calls the
// observer from its inner loop — observability must not perturb the event
// hot path — so the observer only receives the engine's lifetime counters
// when ReportStats is called, normally once at the end of a run.
func (e *Engine) SetObserver(o *obs.Observer) { e.obs = o }

// Observer returns the attached observer (nil when none).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// ReportStats dumps the engine's lifetime counters (events executed,
// events scheduled, arena size) into the attached observer. It is safe to
// call with no observer attached.
func (e *Engine) ReportStats() {
	e.obs.EngineStats(e.steps, e.seq, len(e.slots))
}

// ErrPastEvent is returned by At when the requested time precedes the clock.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// SetHandler installs the dispatcher for typed events (Schedule,
// ScheduleAfter). One handler serves the whole engine; the kind tag tells
// it which event class fired. Typed events exist so that the simulation's
// hot loop — arrivals and departures carrying a job pointer — needs no
// per-event closure allocation.
func (e *Engine) SetHandler(h func(kind int32, payload any)) { e.handler = h }

// At schedules fn to run at virtual time t. Scheduling at the current time
// is allowed; the event runs after all events already scheduled for that
// time. It panics if t precedes the current time or is not a finite number.
func (e *Engine) At(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil handler")
	}
	return e.schedule(t, fn, 0, nil)
}

// After schedules fn to run delay time units from now. Negative delays panic.
func (e *Engine) After(delay float64, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: After(%g): negative delay", delay))
	}
	return e.At(e.now+delay, fn)
}

// Schedule schedules a typed event at virtual time t: when it fires, the
// engine handler (SetHandler) receives the kind tag and the payload. The
// same time-validation rules as At apply.
func (e *Engine) Schedule(t float64, kind int32, payload any) Event {
	if e.handler == nil {
		panic("sim: Schedule without SetHandler")
	}
	return e.schedule(t, nil, kind, payload)
}

// ScheduleAfter schedules a typed event delay time units from now.
func (e *Engine) ScheduleAfter(delay float64, kind int32, payload any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter(%g): negative delay", delay))
	}
	return e.Schedule(e.now+delay, kind, payload)
}

// schedule is the kernel allocation path: slots come from the recycled
// pool and the heap entry is a value push, so steady-state scheduling
// must not touch the garbage collector.
func (e *Engine) schedule(t float64, fn func(), kind int32, payload any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%g) precedes now=%g: %v", t, e.now, ErrPastEvent))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: At(%g): time must be finite", t))
	}
	id := e.allocSlot()
	sl := &e.slots[id]
	sl.fn = fn
	sl.kind = kind
	sl.payload = payload
	sl.live = true
	seq := e.seq
	e.seq++
	e.push(entry{time: t, seq: seq, id: id, gen: sl.gen})
	e.live++
	return Event{e: e, id: id, gen: sl.gen, time: t}
}

// allocSlot pops a recycled slot or grows the arena.
func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		id := e.free
		e.free = e.slots[id].next
		return id
	}
	e.slots = append(e.slots, slot{next: -1})
	return int32(len(e.slots) - 1)
}

// releaseSlot returns a slot to the free list, invalidating outstanding
// handles and heap entries via the generation bump.
func (e *Engine) releaseSlot(id int32) {
	sl := &e.slots[id]
	sl.fn = nil
	sl.payload = nil
	sl.live = false
	sl.gen++
	sl.next = e.free
	e.free = id
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op and reports false.
// Cancellation is O(1): the slot is recycled immediately and the heap entry
// is dropped lazily when it surfaces at the top of the queue.
func (e *Engine) Cancel(ev Event) bool {
	if ev.e != e || ev.e == nil {
		return false
	}
	sl := &e.slots[ev.id]
	if sl.gen != ev.gen || !sl.live {
		return false
	}
	e.releaseSlot(ev.id)
	e.live--
	return true
}

// peek prunes stale (cancelled) entries off the heap top and returns the
// earliest live entry without removing it.
func (e *Engine) peek() (entry, bool) {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		sl := &e.slots[ent.id]
		if sl.gen != ent.gen || !sl.live {
			e.pop()
			continue
		}
		return ent, true
	}
	return entry{}, false
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ent, ok := e.peek()
	if !ok {
		return false
	}
	e.pop()
	sl := &e.slots[ent.id]
	fn, kind, payload := sl.fn, sl.kind, sl.payload
	// Recycle before running the handler so the slot is immediately
	// reusable by events the handler schedules — the pool steady state.
	e.releaseSlot(ent.id)
	e.live--
	e.now = ent.time
	e.steps++
	if fn != nil {
		fn()
	} else {
		e.handler(kind, payload)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%g) precedes now=%g", t, e.now))
	}
	e.stopped = false
	for !e.stopped {
		ent, ok := e.peek()
		if !ok || ent.time > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run or RunUntil return after the current event
// handler completes. It may only be called from inside an event handler.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.live }

// --- binary min-heap of entries ordered by (time, seq) ---
//
// The heap holds value entries, not pointers, and nothing points back into
// it: sift operations are pure memory moves with inline key comparisons,
// and pop never repairs event-side indices (cancellation is lazy). This is
// the index-free fast path that lets the kernel run allocation-free.

func (ents entryHeap) less(i, j int) bool {
	a, b := &ents[i], &ents[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

type entryHeap []entry

func (e *Engine) push(ent entry) {
	e.heap = append(e.heap, ent)
	// Sift up.
	h := entryHeap(e.heap)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the top entry (callers read it via peek first).
func (e *Engine) pop() {
	h := entryHeap(e.heap)
	last := len(h) - 1
	if last == 0 {
		e.heap = e.heap[:0]
		return
	}
	h[0] = h[last]
	e.heap = e.heap[:last]
	// Sift down.
	h = e.heap
	n := len(h)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
