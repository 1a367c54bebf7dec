package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"coalloc/internal/core"
	"coalloc/internal/workpool"
)

// The utilization sweeps behind each figure are embarrassingly parallel:
// every (configuration, utilization) point is an independent simulation.
// This file fans the points of a whole figure — every (curve, utilization)
// pair — out over the process-wide worker pool while preserving the
// sequential early-stop semantics: each curve still ends at the first
// saturated (or failed) point, exactly as a serial sweep would, because
// results are consumed per curve in grid order.

// curveJob is one curve's worth of sweep points: a labelled grid and the
// function that runs one point.
type curveJob struct {
	label string
	grid  []float64
	fn    func(u float64) (core.Result, error)
}

// progress serializes the per-point progress lines and tracks the
// effective point count: when an early stop shrinks a curve, the skipped
// points leave the denominator, so a long sweep never appears stalled at
// "7/18" after saturation ended it at 7.
type progress struct {
	mu      sync.Mutex
	w       io.Writer
	done    int
	skipped int
	total   int
}

// newProgress returns nil when no progress writer is configured; every
// method is nil-safe.
func newProgress(w io.Writer, total int) *progress {
	if w == nil {
		return nil
	}
	return &progress{w: w, total: total}
}

// point prints one completed point. The denominator is the effective
// count total - skipped, clamped from below by done: points that were
// already in flight when their curve's stop marker shrank still complete
// and report, and the denominator must never read less than the numerator.
func (p *progress) point(label string, u float64, res core.Result, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	eff := p.total - p.skipped
	if eff < p.done {
		eff = p.done
	}
	switch {
	case err != nil:
		fmt.Fprintf(p.w, "%s: util %.2f failed: %v\n", label, u, err)
	case res.Saturated:
		fmt.Fprintf(p.w, "%s: util %.2f saturated (%d/%d points)\n", label, u, p.done, eff)
	default:
		fmt.Fprintf(p.w, "%s: util %.2f -> response %.0f s (%d/%d points)\n",
			label, u, res.MeanResponse, p.done, eff)
	}
	p.mu.Unlock()
}

// skip removes n points from the effective count.
func (p *progress) skip(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	p.skipped += n
	p.mu.Unlock()
}

// runSet runs every (curve, point) task of the job set on the shared
// workpool and returns each curve's results in grid order. Tasks are
// enumerated up front and claimed in descending grid-index order (the
// expected-longest points first), interleaving the curves, so the pool
// drains the whole figure without per-curve barriers: one slow curve
// never idles the workers the other curves could use. Each curve keeps
// its own stop marker: when a point saturates or fails, points of that
// curve at or beyond it are never started, and the wasted work is bounded
// by the points already in flight. Each returned slice may therefore be
// shorter than its grid; it always extends at least through the curve's
// first saturated point, because the marker only ever shrinks to just
// past a completed point — every index below the final marker ran.
func runSet(jobs []curveJob, prog *progress) ([][]core.Result, error) {
	results := make([][]core.Result, len(jobs))
	errs := make([][]error, len(jobs))
	stopAt := make([]atomic.Int64, len(jobs))
	maxLen := 0
	for c := range jobs {
		n := len(jobs[c].grid)
		results[c] = make([]core.Result, n)
		errs[c] = make([]error, n)
		stopAt[c].Store(int64(n))
		if n > maxLen {
			maxLen = n
		}
	}
	type task struct{ c, i int }
	tasks := make([]task, 0, maxLen*len(jobs))
	for i := maxLen - 1; i >= 0; i-- {
		for c := range jobs {
			if i < len(jobs[c].grid) {
				tasks = append(tasks, task{c, i})
			}
		}
	}
	workpool.Do(len(tasks), func(k int) {
		t := tasks[k]
		job := &jobs[t.c]
		if int64(t.i) >= stopAt[t.c].Load() {
			return
		}
		res, err := job.fn(job.grid[t.i])
		results[t.c][t.i], errs[t.c][t.i] = res, err
		if err != nil || res.Saturated {
			// Shrink the curve's marker to min(marker, i+1) and retire
			// the newly cut points from the effective progress count —
			// before printing this point, so its line already shows the
			// shrunken denominator.
			for {
				cur := stopAt[t.c].Load()
				if cur <= int64(t.i)+1 {
					break
				}
				if stopAt[t.c].CompareAndSwap(cur, int64(t.i)+1) {
					prog.skip(int(cur) - (t.i + 1))
					break
				}
			}
		}
		prog.point(job.label, job.grid[t.i], res, err)
	})
	// Consume per curve in grid order; the first error in curve-then-grid
	// order wins, deterministically.
	out := make([][]core.Result, len(jobs))
	for c := range jobs {
		limit := int(stopAt[c].Load())
		for i := 0; i < limit; i++ {
			if errs[c][i] != nil {
				return nil, errs[c][i]
			}
			out[c] = append(out[c], results[c][i])
			if results[c][i].Saturated {
				break
			}
		}
	}
	return out, nil
}

// sweepSet runs a set of curves and returns each curve's results in grid
// order: all on runSet at once, or — with an Observer attached, which is
// single-threaded — serially in grid order. Both paths produce identical
// result sets, so the rendered figures are byte-identical (pinned by a
// guardrail test).
func (e *Env) sweepSet(jobs []curveJob) ([][]core.Result, error) {
	if e.Observer == nil {
		total := 0
		for c := range jobs {
			total += len(jobs[c].grid)
		}
		return runSet(jobs, newProgress(e.Progress, total))
	}
	out := make([][]core.Result, len(jobs))
	for c := range jobs {
		job := &jobs[c]
		prog := newProgress(e.Progress, len(job.grid))
		for i, u := range job.grid {
			res, err := job.fn(u)
			if err != nil {
				prog.point(job.label, u, res, err)
				return nil, err
			}
			if res.Saturated {
				prog.skip(len(job.grid) - i - 1)
			}
			prog.point(job.label, u, res, err)
			out[c] = append(out[c], res)
			if res.Saturated {
				break
			}
		}
	}
	return out, nil
}

// sweep runs one labelled curve sweep over the grid.
func (e *Env) sweep(label string, grid []float64, fn func(util float64) (core.Result, error)) ([]core.Result, error) {
	out, err := e.sweepSet([]curveJob{{label: label, grid: grid, fn: fn}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
