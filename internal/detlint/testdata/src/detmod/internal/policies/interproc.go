// Interprocedural fixture: the wall clock laundered through a helper
// package is reported at the deterministic call site under nowallclock.
package policies

import "coalloc/internal/hostenv"

// stampArrival calls a clean-looking helper that reaches time.Now two
// hops away.
func stampArrival() int64 {
	return hostenv.Stamp() // want nowallclock
}

// width calls a genuinely clean helper from the same package; no taint.
func width() int {
	return hostenv.Width()
}

var (
	_ = stampArrival
	_ = width
)
