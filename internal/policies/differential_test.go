package policies

import (
	"fmt"
	"math"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/rng"
)

// profileMatchesRef compares the flat profile against the reference
// slice-of-slices implementation, segment by segment.
func profileMatchesRef(p *profile, ref *refProfile) error {
	if p.n != len(ref.times) {
		return fmt.Errorf("flat has %d segments, reference %d:\nflat %s\nref  times %v idle %v",
			p.n, len(ref.times), profileString(p), ref.times, ref.idle)
	}
	for i := 0; i < p.n; i++ {
		if p.time(i) != ref.times[i] {
			return fmt.Errorf("segment %d starts at %g, reference %g", i, p.time(i), ref.times[i])
		}
		s := p.seg(i)
		for c := range s {
			if s[c] != ref.idle[i][c] {
				return fmt.Errorf("segment %d cluster %d idle %d, reference %d", i, c, s[c], ref.idle[i][c])
			}
		}
	}
	return nil
}

// TestProfileDifferential fuzzes random operation streams — earliestStart
// probes, reservations, and clock advances — through the flat profile and
// the slice-of-slices reference in lockstep, asserting identical (start,
// placement) answers and identical segment contents after every step. Any
// divergence in the flat storage bookkeeping (offsets, splits, batched
// compaction) or its window scan shows up here.
func TestProfileDifferential(t *testing.T) {
	fits := []cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit}
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.NewStream(seed)
		nc := 1 + r.Intn(4)
		size := 8 + r.Intn(25)
		sizes := make([]int, nc)
		for i := range sizes {
			sizes[i] = size
		}
		m := cluster.New(sizes)
		fit := fits[r.Intn(3)]

		// A random running set seeds both profiles with release breakpoints.
		var running []runInfo
		alloc := make([]int, nc)
		for i := 0; i < r.Intn(6); i++ {
			c := r.Intn(nc)
			w := 1 + r.Intn(size-alloc[c])
			m.Alloc([]int{w}, []int{c})
			alloc[c] += w
			running = append(running, runInfo{
				finish: 1 + r.Float64()*50, comps: []int{w}, placement: []int{c},
			})
			if alloc[c] == size {
				break
			}
		}
		p := new(profile).rebuild(m, 0, running)
		ref := newRefProfile(m, 0, running)
		if err := profileMatchesRef(p, ref); err != nil {
			t.Fatalf("seed %d after build: %v", seed, err)
		}

		now := 0.0
		for step := 0; step < 80; step++ {
			switch op := r.Intn(10); {
			case op < 6: // probe, and reserve when feasible
				n := 1 + r.Intn(nc)
				comps := make([]int, n)
				for i := range comps {
					comps[i] = 1 + r.Intn(size)
				}
				for i := 1; i < n; i++ {
					if comps[i] > comps[i-1] {
						comps[i] = comps[i-1]
					}
				}
				dur := r.Float64() * 40 // zero-duration probes included
				gt, gp := p.earliestStart(comps, dur, fit)
				wt, wp := ref.earliestStart(comps, dur, fit)
				if gt != wt {
					t.Fatalf("seed %d step %d: earliestStart(%v, %g) = %g, reference %g\nflat %s",
						seed, step, comps, dur, gt, wt, profileString(p))
				}
				if len(gp) != len(wp) {
					t.Fatalf("seed %d step %d: placement %v, reference %v", seed, step, gp, wp)
				}
				for i := range gp {
					if gp[i] != wp[i] {
						t.Fatalf("seed %d step %d: placement %v, reference %v", seed, step, gp, wp)
					}
				}
				if !math.IsInf(gt, 1) && dur > 0 {
					p.reserve(comps, gp, gt, dur)
					ref.reserve(comps, wp, wt, dur)
				}
			default: // advance the clock into or exactly onto a segment
				if p.n > 1 && r.Intn(2) == 0 {
					// Land exactly on an existing breakpoint — including
					// ones that reserve's segmentAt splits created.
					now = p.time(1 + r.Intn(p.n-1))
				} else {
					now += r.Float64() * 15
				}
				p.trim(now)
				ref.trim(now)
			}
			if err := profileMatchesRef(p, ref); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestPlacementMonotone exhaustively verifies the property the policies'
// capacity fast exits and pass elision are built on:
// for every fit rule, if the greedy distinct-cluster placement succeeds on
// an idle vector, it succeeds on every pointwise-greater vector. The
// bounded enumeration (3 clusters with idle 0..4, every non-increasing
// component vector) covers all the structural cases — ties, equal idle
// values, components hitting exactly the minimum — that a sampled check
// could miss.
func TestPlacementMonotone(t *testing.T) {
	const nc, maxIdle = 3, 4
	var compSets [][]int
	for a := 1; a <= maxIdle; a++ {
		compSets = append(compSets, []int{a})
		for b := 1; b <= a; b++ {
			compSets = append(compSets, []int{a, b})
			for c := 1; c <= b; c++ {
				compSets = append(compSets, []int{a, b, c})
			}
		}
	}
	place := make([]int, nc)
	used := make([]bool, nc)
	var lo, hi [nc]int
	for _, fit := range []cluster.Fit{cluster.WorstFit, cluster.BestFit, cluster.FirstFit} {
		for h := 0; h < (maxIdle+1)*(maxIdle+1)*(maxIdle+1); h++ {
			hi[0], hi[1], hi[2] = h%(maxIdle+1), h/(maxIdle+1)%(maxIdle+1), h/((maxIdle+1)*(maxIdle+1))
			for lo[0] = 0; lo[0] <= hi[0]; lo[0]++ {
				for lo[1] = 0; lo[1] <= hi[1]; lo[1]++ {
					for lo[2] = 0; lo[2] <= hi[2]; lo[2]++ {
						for _, comps := range compSets {
							if !cluster.PlaceVector(lo[:], comps, fit, place[:len(comps)], used) {
								continue
							}
							if !cluster.PlaceVector(hi[:], comps, fit, place[:len(comps)], used) {
								t.Fatalf("fit %v: comps %v fit on %v but not on %v >= it",
									fit, comps, lo, hi)
							}
						}
					}
				}
			}
		}
	}
}
