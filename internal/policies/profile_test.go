package policies

import (
	"fmt"
	"testing"

	"coalloc/internal/cluster"
)

// profilesEqual reports whether two profiles describe identical forecasts:
// same breakpoints, same idle vector on every segment. It compares through
// the accessors, so profiles with different physical offsets into their
// flat backing arrays still compare equal when they describe the same
// forecast.
func profilesEqual(a, b *profile) bool {
	if a.n != b.n || a.nc != b.nc {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.time(i) != b.time(i) {
			return false
		}
		sa, sb := a.seg(i), b.seg(i)
		for c := range sa {
			if sa[c] != sb[c] {
				return false
			}
		}
	}
	return true
}

// profileString renders a profile for failure messages.
func profileString(p *profile) string {
	var times []float64
	var idle [][]int
	for i := 0; i < p.n; i++ {
		times = append(times, p.time(i))
		idle = append(idle, p.seg(i))
	}
	return fmt.Sprintf("times %v idle %v", times, idle)
}

// TestProfileTrimAndRebuild pins the low-level invariants the
// conservative policy relies on: trim drops past segments and keeps a
// breakpoint landing exactly on now, and rebuild into storage a trimmed
// forecast left behind (a dead prefix, more segments) gives the same
// forecast as a rebuild into empty storage.
func TestProfileTrimAndRebuild(t *testing.T) {
	m := cluster.New([]int{32})
	m.Alloc([]int{12}, []int{0})
	running := []runInfo{
		{finish: 20, comps: []int{4}, placement: []int{0}},
		{finish: 10, comps: []int{8}, placement: []int{0}},
	}
	var p profile
	p.rebuild(m, 0, running)
	// Segments: [0,10): 20, [10,20): 28, [20,inf): 32.
	p.trim(5)
	if p.n != 3 || p.time(0) != 5 || p.seg(0)[0] != 20 {
		t.Fatalf("trim(5): %s", profileString(&p))
	}
	p.trim(10)
	if p.n != 2 || p.time(0) != 10 || p.seg(0)[0] != 28 {
		t.Fatalf("trim(10): %s", profileString(&p))
	}
	if p.off != 1 {
		t.Errorf("trim(10) offset %d, want 1 (logical drop, no copy)", p.off)
	}
	p.rebuild(m, 0, running[:1])
	var fresh profile
	fresh.rebuild(m, 0, running[:1])
	if !profilesEqual(&p, &fresh) {
		t.Fatalf("rebuild into used storage %s, into empty storage %s", profileString(&p), profileString(&fresh))
	}
	if p.off != 0 || p.n != 2 {
		t.Errorf("rebuild left offset %d and %d segments, want 0 and 2", p.off, p.n)
	}
}

// TestProfileTrimCompacts drives the offset past the live length so the
// batched physical compaction runs, and checks against the reference
// profile that the forecast survives it.
func TestProfileTrimCompacts(t *testing.T) {
	m := cluster.New([]int{32, 32})
	m.Alloc([]int{4, 4}, []int{0, 1})
	var running []runInfo
	for i := 0; i < 8; i++ {
		running = append(running, runInfo{
			finish: float64(10 * (i + 1)), comps: []int{1}, placement: []int{i % 2},
		})
	}
	m.Alloc([]int{8}, []int{0})
	running = append(running, runInfo{finish: 200, comps: []int{8}, placement: []int{0}})
	p := new(profile).rebuild(m, 0, running)
	ref := newRefProfile(m, 0, running)
	for _, now := range []float64{10, 20, 30, 40, 50, 60, 70} {
		p.trim(now)
		ref.trim(now)
		if p.off != 0 && p.off >= p.n {
			t.Fatalf("trim(%g): offset %d not compacted with %d live segments", now, p.off, p.n)
		}
		if err := profileMatchesRef(p, ref); err != nil {
			t.Fatalf("trim(%g): %v", now, err)
		}
	}
}
