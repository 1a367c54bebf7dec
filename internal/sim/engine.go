// Package sim is a small discrete-event simulation kernel.
//
// It plays the role the commercial CSIM18 package plays in the paper: it
// maintains a virtual clock and an ordered set of pending events, and hands
// each event to one engine-wide handler in nondecreasing time order. An
// event is a kind tag plus a payload (Schedule, ScheduleAfter). The kernel
// is deliberately event-oriented rather than process-oriented: the
// multicluster model needs only job arrivals and departures, and an
// explicit event loop keeps the scheduler-policy code free of goroutines
// and therefore exactly reproducible.
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
//
// The kernel knows nothing of observability. It keeps three lifetime
// counters (Steps, Scheduled, ArenaSlots), which package core reads once
// at the end of a run and reports to its observer.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Event is a handle to a scheduled event. It is a small value (copy it
// freely); the zero value is not useful — obtain events from Schedule or
// ScheduleAfter. Handles are generation-checked: once the event fires or
// is cancelled, the handle goes stale and Cancel reports false even if the
// kernel has recycled the underlying slot.
type Event struct {
	e   *Engine
	id  int32
	gen uint32
}

// slot is the arena record behind one scheduled event: the kind tag and
// payload handed to the engine-wide handler when it fires.
type slot struct {
	payload any
	kind    int32
	gen     uint32 // bumped on release; stale handles/entries compare !=
	next    int32  // free-list link, -1 = end
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
	seq     uint64
	stopped bool
	steps   uint64
	handler func(kind int32, payload any)
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

// ArenaSlots returns the size of the event-slot arena: the largest number
// of events ever pending at once, since fired and cancelled slots are
// recycled.
func (e *Engine) ArenaSlots() int { return len(e.slots) }

// errPastEvent is the cause named when Schedule is asked for a time that
// precedes the clock.
var errPastEvent = errors.New("sim: event scheduled in the past")

// SetHandler installs the event dispatcher. One handler serves the whole
// engine; the kind tag tells it which event class fired. A tag and payload
// instead of a closure per event is what lets the simulation's hot loop —
// arrivals and departures carrying a job pointer — run without a
// per-event allocation.
func (e *Engine) SetHandler(h func(kind int32, payload any)) { e.handler = h }

// Schedule schedules an event at virtual time t: when it fires, the engine
// handler (SetHandler) receives the kind tag and the payload. Scheduling
// at the current time is allowed; the event runs after all events already
// scheduled for that time. It panics if t precedes the current time or is
// not a finite number.
//
// Slots come from the recycled pool and the heap entry is a value push,
// so steady-state scheduling does not touch the garbage collector.
func (e *Engine) Schedule(t float64, kind int32, payload any) Event {
	if e.handler == nil {
		panic("sim: Schedule without SetHandler")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: Schedule(%g) precedes now=%g: %v", t, e.now, errPastEvent))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: Schedule(%g): time must be finite", t))
	}
	id := e.allocSlot()
	sl := &e.slots[id]
	sl.kind = kind
	sl.payload = payload
	seq := e.seq
	e.seq++
	e.push(entry{time: t, seq: seq, id: id, gen: sl.gen})
	return Event{e: e, id: id, gen: sl.gen}
}

// ScheduleAfter schedules an event delay time units from now. Negative
// delays panic.
func (e *Engine) ScheduleAfter(delay float64, kind int32, payload any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter(%g): negative delay", delay))
	}
	return e.Schedule(e.now+delay, kind, payload)
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
	sl.payload = nil
	sl.gen++
	sl.next = e.free
	e.free = id
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op and reports false.
// Cancellation is O(1): the slot is recycled immediately and the heap entry
// is dropped lazily when it surfaces at the top of the queue.
func (e *Engine) Cancel(ev Event) bool {
	if ev.e != e || e.slots[ev.id].gen != ev.gen {
		return false
	}
	e.releaseSlot(ev.id)
	return true
}

// peek prunes stale (cancelled) entries off the heap top and returns the
// earliest live entry without removing it.
func (e *Engine) peek() (entry, bool) {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.slots[ent.id].gen != ent.gen {
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
	kind, payload := sl.kind, sl.payload
	// Recycle before running the handler so the slot is immediately
	// reusable by events the handler schedules — the pool steady state.
	e.releaseSlot(ent.id)
	e.now = ent.time
	e.steps++
	e.handler(kind, payload)
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
