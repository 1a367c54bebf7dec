// Package hostenv is a fixture helper outside the deterministic set: it
// may read the wall clock without a finding of its own, which is exactly
// what makes it a taint source for nowallclock's call-site check —
// deterministic code calling Stamp launders time.Now through two hops.
package hostenv

import "time"

// nowUnix touches the wall clock directly.
func nowUnix() int64 {
	return time.Now().Unix()
}

// Stamp is the laundering hop: no time selector in sight, but calling
// it still reaches time.Now.
func Stamp() int64 {
	return nowUnix()
}

// Width is clean; calls to it must not be flagged.
func Width() int {
	return 80
}
