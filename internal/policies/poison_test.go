package policies

import (
	"fmt"
	"slices"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

// dispatchRec is one start a policy made: which job, when, and where.
type dispatchRec struct {
	id    int64
	start float64
	place []int
}

func (r dispatchRec) String() string {
	return fmt.Sprintf("job %d at %g on %v", r.id, r.start, r.place)
}

// recordingCtx is a backlogCtx that logs every dispatch.
type recordingCtx struct {
	*backlogCtx
	log []dispatchRec
}

func (c *recordingCtx) Dispatch(j *workload.Job, placement []int) {
	c.log = append(c.log, dispatchRec{j.ID, c.now, slices.Clone(placement)})
	c.backlogCtx.Dispatch(j, placement)
}

// poisonScratch, when the driver poisons, overwrites every pass-scoped
// buffer a policy may read: the Ctx scratch bundle over its full
// capacity, and the placement buffer earliestStart hands out on each of
// the policy's profiles. Correct code writes these before it reads them
// within one pass, so poisoning them between calls changes nothing; code
// that keeps them across calls reads the poison.
func (d *backlogDriver) poisonScratch() {
	if !d.poison {
		return
	}
	s := d.bc.scratch
	fillCap(s.Place, -1)
	fillCap(s.Round, -1)
	fillCap(s.Used, true)
	fillCap(s.Started, nil)
	if cons, ok := d.p.(*Conservative); ok {
		fillCap(cons.scratch.place, -1)
		fillCap(cons.repair.place, -1)
	}
}

// fillCap sets every element of xs, up to its capacity, to v.
func fillCap[T any](xs []T, v T) {
	xs = xs[:cap(xs)]
	for i := range xs {
		xs[i] = v
	}
}

// TestPoisonedScratchDifferential checks that no policy carries pass-scoped
// storage from one call into the next: the Ctx scratch bundle, and the
// placement earliestStart returns. Each policy runs the same standing
// backlog twice, plainly and with that storage poisoned around every
// call, and must make the same dispatches — job, start time and placement
// — in the same order. A retained scratch slice reads -1 placements, stale
// used flags or cleared job lists in the poisoned run, which change (or
// crash) its schedule.
func TestPoisonedScratchDifferential(t *testing.T) {
	const inSystem, cycles = 30, 600
	cases := []struct {
		name   string
		policy func() Policy
	}{
		{"GS", func() Policy { return NewGS(cluster.WorstFit) }},
		{"GS-SPF", func() Policy { return NewSPF(cluster.WorstFit) }},
		{"GS-EASY", func() Policy { return NewEASY(cluster.WorstFit) }},
		{"GS-CONS", func() Policy { return NewConservative(cluster.WorstFit, DefaultLookahead) }},
		{"LS", func() Policy { return NewLS(backlogClusters, cluster.WorstFit) }},
		{"LS-sorted", func() Policy { return NewLSSortedReenable(backlogClusters, cluster.WorstFit) }},
		{"LP", func() Policy { return NewLP(backlogClusters, cluster.WorstFit) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(name string, poison bool) []dispatchRec {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s run panicked: %v", name, r)
					}
				}()
				d := newBacklogDriver(tc.policy())
				rc := &recordingCtx{backlogCtx: d.bc}
				d.ctx, d.poison = rc, poison
				for i := 0; i < inSystem; i++ {
					d.submit()
				}
				for i := 0; i < cycles; i++ {
					d.cycle()
				}
				if d.p.Queued() == 0 {
					t.Fatalf("%s run: no standing backlog at the end", name)
				}
				return rc.log
			}
			plain, poisoned := run("plain", false), run("poisoned", true)
			if len(plain) < cycles {
				t.Fatalf("only %d dispatches in the plain run", len(plain))
			}
			for i := range min(len(plain), len(poisoned)) {
				a, b := plain[i], poisoned[i]
				if a.id != b.id || a.start != b.start || !slices.Equal(a.place, b.place) {
					t.Fatalf("dispatch %d: plain %v, poisoned %v", i, a, b)
				}
			}
			if len(plain) != len(poisoned) {
				t.Fatalf("plain run made %d dispatches, poisoned %d", len(plain), len(poisoned))
			}
		})
	}
}
