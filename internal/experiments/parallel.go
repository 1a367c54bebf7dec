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
// function that builds the run configuration of one point.
type curveJob struct {
	label  string
	grid   []float64
	config func(u float64) core.Config
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

// runSet runs every distinct (curve, point) task of the job set on the
// shared workpool and returns each curve's results in grid order. Points
// this Env already ran are filled in first, and points with equal keys
// (pointKey) become one task whose Result goes to every curve that asked,
// so each distinct point runs once and no worker ever waits on another's
// run. Tasks are enumerated up front and claimed in descending grid-index
// order (the expected-longest points first), interleaving the curves, so
// the pool drains the whole figure without per-curve barriers: one slow
// curve never idles the workers the other curves could use. Each curve
// keeps its own stop marker: when a point saturates or fails, points of
// that curve at or beyond it are not needed, and a task none of whose
// curves needs it any more is never started; the wasted work is bounded
// by the points already in flight. Each returned slice may therefore be
// shorter than its grid; it always extends at least through the curve's
// first saturated point, because the marker only ever shrinks to just
// past a completed point — every index below the final marker ran.
func (e *Env) runSet(jobs []curveJob) ([][]core.Result, error) {
	type point struct {
		cfg    core.Config
		key    pointKey
		keyed  bool
		filled bool // Result from an earlier run of this Env
		task   int  // index into tasks, or -1
	}
	type task struct {
		pt      *point
		targets [][2]int     // (curve, grid index) pairs that want the Result
		live    atomic.Int64 // targets still below their curve's marker
	}
	pts := make([][]point, len(jobs))
	results := make([][]core.Result, len(jobs))
	errs := make([][]error, len(jobs))
	stopAt := make([]atomic.Int64, len(jobs))
	maxLen := 0
	for c := range jobs {
		n := len(jobs[c].grid)
		pts[c] = make([]point, n)
		results[c] = make([]core.Result, n)
		errs[c] = make([]error, n)
		stop := n // a saturated hit ends the curve, as a saturated run would
		for i := 0; i < stop; i++ {
			p := &pts[c][i]
			p.cfg, p.task = jobs[c].config(jobs[c].grid[i]), -1
			p.key, p.keyed = e.pointKey(p.cfg)
			if !p.keyed {
				continue
			}
			if results[c][i], p.filled = e.recall(p.key); p.filled && results[c][i].Saturated {
				stop = i + 1
			}
		}
		stopAt[c].Store(int64(stop))
		if n > maxLen {
			maxLen = n
		}
	}
	var tasks []*task
	byKey := make(map[pointKey]int)
	for i := maxLen - 1; i >= 0; i-- {
		for c := range jobs {
			p := &pts[c][i]
			if int64(i) >= stopAt[c].Load() || p.filled {
				continue
			}
			k, seen := byKey[p.key]
			if !p.keyed || !seen {
				k = len(tasks)
				tasks = append(tasks, &task{pt: p})
				if p.keyed {
					byKey[p.key] = k
				}
			}
			p.task = k
			tasks[k].targets = append(tasks[k].targets, [2]int{c, i})
			tasks[k].live.Add(1)
		}
	}
	prog := newProgress(e.Progress, len(tasks))
	workpool.Do(len(tasks), func(k int) {
		t := tasks[k]
		if t.live.Load() == 0 {
			return
		}
		res, err := e.runPoint(t.pt.cfg)
		if t.pt.keyed && err == nil {
			e.remember(t.pt.key, res)
		}
		for n, tg := range t.targets {
			c, i := tg[0], tg[1]
			results[c][i], errs[c][i] = res, err
			if n > 0 {
				results[c][i] = cloneResult(res)
			}
			if err == nil && !res.Saturated {
				continue
			}
			// Shrink the curve's marker to min(marker, i+1) and retire
			// the tasks no curve needs any more from the effective
			// progress count — before printing this point, so its line
			// already shows the shrunken denominator.
			for {
				cur := stopAt[c].Load()
				if cur <= int64(i)+1 {
					break
				}
				if stopAt[c].CompareAndSwap(cur, int64(i)+1) {
					for j := i + 1; j < int(cur); j++ {
						if o := pts[c][j].task; o >= 0 && tasks[o].live.Add(-1) == 0 {
							prog.skip(1)
						}
					}
					break
				}
			}
		}
		c, i := t.targets[0][0], t.targets[0][1]
		prog.point(jobs[c].label, jobs[c].grid[i], res, err)
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
// single-threaded — serially in grid order, every point run afresh. Both
// paths produce identical result sets, so the rendered figures are
// byte-identical (pinned by a guardrail test).
func (e *Env) sweepSet(jobs []curveJob) ([][]core.Result, error) {
	if e.Observer == nil {
		return e.runSet(jobs)
	}
	out := make([][]core.Result, len(jobs))
	for c := range jobs {
		job := &jobs[c]
		prog := newProgress(e.Progress, len(job.grid))
		for i, u := range job.grid {
			res, err := e.runPoint(job.config(u))
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
func (e *Env) sweep(label string, grid []float64, config func(util float64) core.Config) ([]core.Result, error) {
	out, err := e.sweepSet([]curveJob{{label: label, grid: grid, config: config}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
