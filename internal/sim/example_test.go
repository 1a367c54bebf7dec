package sim_test

import (
	"fmt"

	"coalloc/internal/sim"
)

// A minimal event-driven simulation: two events scheduled out of order run
// in virtual-time order, and the handler can schedule further events.
func Example() {
	const (
		first = iota
		second
		third
	)
	eng := sim.New()
	eng.SetHandler(func(kind int32, _ any) {
		switch kind {
		case first:
			fmt.Printf("t=%g first\n", eng.Now())
		case second:
			fmt.Printf("t=%g second\n", eng.Now())
			eng.ScheduleAfter(5, third, nil)
		case third:
			fmt.Printf("t=%g third\n", eng.Now())
		}
	})
	eng.Schedule(10, second, nil)
	eng.Schedule(1, first, nil)
	eng.Run()
	// Output:
	// t=1 first
	// t=10 second
	// t=15 third
}

// RunUntil executes events up to a bound and leaves the rest queued.
func ExampleEngine_RunUntil() {
	eng := sim.New()
	eng.SetHandler(func(_ int32, payload any) { fmt.Println("event at", payload) })
	for _, t := range []float64{1, 2, 3} {
		eng.Schedule(t, 0, t)
	}
	eng.RunUntil(2)
	fmt.Println("now:", eng.Now())
	eng.Run()
	// Output:
	// event at 1
	// event at 2
	// now: 2
	// event at 3
}
