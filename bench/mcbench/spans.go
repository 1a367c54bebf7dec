package main

import (
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of one traced repetition in memory. The benchmark
// records them around its own calls into each layer of the program; the
// program itself is not instrumented. A nil *tracer records nothing, so the
// untraced repetitions run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call: offsets from the tracer's origin, and the index
// of the span that caused it (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	// The harness's Dispatch opens spans, and policies call Dispatch
	// through policies.Ctx: a span's timestamp never flows back into a
	// simulation.
	now := time.Since(t.t0) //detlint:ignore nowallclock span timestamps are measurements only; no simulated state reads them
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0) //detlint:ignore nowallclock span timestamps are measurements only; no simulated state reads them
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// spanAgg is the per-name aggregate written to the -json output.
type spanAgg struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// aggregate folds the closed spans by name. A span's self time is its
// duration minus the part of its interval that its children cover; children
// running in parallel (the workpool tasks of one repetition) are merged
// into their union first, so overlap is not subtracted twice.
func aggregate(spans []span) map[string]spanAgg {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]spanAgg)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		a := out[s.name]
		a.Count++
		a.TotalS += d.Seconds()
		a.SelfS += (d - covered(children[i])).Seconds()
		out[s.name] = a
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total time.Duration
	var lo, hi time.Duration = 0, -1
	for _, s := range spans {
		if s.start > hi {
			if hi >= 0 {
				total += hi - lo
			}
			lo, hi = s.start, s.end
		} else if s.end > hi {
			hi = s.end
		}
	}
	if hi >= 0 {
		total += hi - lo
	}
	return total
}

// snapshot returns the aggregates of the spans recorded so far.
func (t *tracer) snapshot() map[string]spanAgg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return aggregate(t.spans)
}
