// Interprocedural fixtures: the wall clock laundered through a helper
// package (nowallclock) and pooled handles leaked through helper
// functions (eventretain, jobretain). The direct stores inside the
// helpers and the calls handing the value over are reported under the
// same rule.
package policies

import (
	"coalloc/internal/hostenv"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// stampArrival calls a clean-looking helper that reaches time.Now two
// hops away.
func stampArrival() int64 {
	return hostenv.Stamp() // want nowallclock
}

// width calls a genuinely clean helper from the same package; no taint.
func width() int {
	return hostenv.Width()
}

// registry retains event handles; its add method is where the handle
// escapes, and every call passing a handle in is an eventretain finding.
type registry struct {
	evs []sim.Event // want eventretain
}

func (r *registry) add(ev sim.Event) {
	r.evs = append(r.evs, ev) // want eventretain
}

// stash forwards its handle to the retaining add; the forwarding call is
// itself an eventretain site, and stash's parameter escapes transitively.
func stash(r *registry, ev sim.Event) {
	r.add(ev) // want eventretain
}

func leakHandles(e *sim.Engine) {
	r := &registry{}
	ev := e.After(1, nil)
	r.add(ev)    // want eventretain
	stash(r, ev) // want eventretain
	_ = stampArrival
	_ = width
}

var archived *workload.Job // want jobretain

// record parks the job in a package-level variable — the store the
// jobretain sink model forbids — so passing a job to it is flagged.
func record(j *workload.Job) {
	archived = j
}

func leakViaRecord(a *workload.Arena) {
	record(a.Job()) // want jobretain
	_ = leakHandles
}

// ledger keeps handles under a documented invariant. The one directive
// on the store inside keep silences the direct finding and keeps keep's
// parameter from escaping, so the call in useLedger stays clean.
type ledger struct {
	evs []sim.Event // want eventretain
}

func (l *ledger) keep(ev sim.Event) {
	l.evs = append(l.evs, ev) //detlint:ignore eventretain entries are dropped when their event fires
}

func useLedger(e *sim.Engine) {
	l := &ledger{}
	l.keep(e.After(1, nil))
}
