package sim

import (
	"math/rand"
	"testing"
)

// TestEngineRandomizedStress interleaves Schedule, ScheduleAfter, Cancel
// and RunUntil in random orders against the pooled kernel and asserts the
// fundamental contract: every surviving event fires exactly once, in
// nondecreasing time order with FIFO (sequence) tie-breaks, and no
// cancelled event ever fires. Handlers themselves randomly schedule and cancel, exercising slot
// recycling under reentrancy.
func TestEngineRandomizedStress(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		r := rand.New(rand.NewSource(seed))
		e := newEngine()

		type rec struct {
			ev        Event
			time      float64
			seq       int // global scheduling order, the FIFO tie-break
			cancelled bool
			fired     bool
		}
		var recs []*rec
		var firedOrder []*rec
		nextSeq := 0

		var schedule func(horizon float64)
		schedule = func(horizon float64) {
			rc := &rec{seq: nextSeq}
			nextSeq++
			recs = append(recs, rc)
			fn := func() {
				rc.fired = true
				firedOrder = append(firedOrder, rc)
				// Reentrant activity: sometimes schedule a follow-up or
				// cancel a random pending event from inside a handler.
				if r.Float64() < 0.3 && e.Now() < horizon {
					schedule(horizon)
				}
				if r.Float64() < 0.15 {
					victim := recs[r.Intn(len(recs))]
					if e.Cancel(victim.ev) {
						victim.cancelled = true
					}
				}
			}
			// Mix Schedule (absolute) and ScheduleAfter (relative) scheduling.
			if r.Float64() < 0.5 {
				tm := e.Now() + r.Float64()*20
				if r.Float64() < 0.2 { // force ties
					tm = e.Now() + float64(r.Intn(5))
				}
				rc.time = tm
				rc.ev = e.Schedule(tm, 0, fn)
			} else {
				d := r.Float64() * 20
				rc.time = e.Now() + d
				rc.ev = e.ScheduleAfter(d, 0, fn)
			}
		}

		now := 0.0
		for round := 0; round < 40; round++ {
			for i, k := 0, r.Intn(20); i < k; i++ {
				schedule(now + 100)
			}
			// Cancel a random subset from outside handlers.
			for _, rc := range recs {
				if !rc.fired && !rc.cancelled && r.Float64() < 0.1 {
					if e.Cancel(rc.ev) {
						rc.cancelled = true
					}
				}
			}
			// Alternate RunUntil hops with full drains.
			if r.Float64() < 0.8 {
				now += r.Float64() * 15
				e.RunUntil(now)
				if e.Now() != now {
					t.Fatalf("seed %d: clock %g after RunUntil(%g)", seed, e.Now(), now)
				}
			} else {
				e.Run()
				now = e.Now()
			}
		}
		e.Run()

		// Every event either fired or was cancelled, never both.
		pending := 0
		for _, rc := range recs {
			if rc.fired && rc.cancelled {
				t.Fatalf("seed %d: event seq %d both fired and cancelled", seed, rc.seq)
			}
			if !rc.fired && !rc.cancelled {
				pending++
			}
		}
		if pending != 0 {
			t.Fatalf("seed %d: %d events neither fired nor cancelled after drain", seed, pending)
		}
		if len(e.heap) != 0 {
			t.Fatalf("seed %d: %d heap entries after drain", seed, len(e.heap))
		}
		// Fired order respects (time, seq).
		for i := 1; i < len(firedOrder); i++ {
			a, b := firedOrder[i-1], firedOrder[i]
			if b.time < a.time {
				t.Fatalf("seed %d: event at t=%g fired after t=%g", seed, b.time, a.time)
			}
			if b.time == a.time && b.seq < a.seq {
				t.Fatalf("seed %d: tie at t=%g fired seq %d before seq %d",
					seed, a.time, b.seq, a.seq)
			}
		}
	}
}
