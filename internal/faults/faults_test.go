package faults

import (
	"math"
	"strings"
	"testing"

	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Error("nil spec reports enabled")
	}
	if (&Spec{}).Enabled() {
		t.Error("zero spec reports enabled")
	}
	if !(&Spec{MTBF: 100}).Enabled() {
		t.Error("positive MTBF reports disabled")
	}
	// A bad MTBF must reach Validate, not pass as "no faults".
	for _, mtbf := range []float64{-5, math.NaN()} {
		s := &Spec{MTBF: mtbf, MTTR: 900}
		if !s.Enabled() {
			t.Errorf("MTBF %g reports disabled", mtbf)
		}
		if s.Validate() == nil {
			t.Errorf("MTBF %g validated", mtbf)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", Spec{MTBF: 1000, MTTR: 900}, true},
		{"explicit retries", Spec{MTBF: 1000, MTTR: 900, RetryBase: 5, RetryCap: 50}, true},
		{"zero MTBF", Spec{MTTR: 900}, false},
		{"missing MTTR", Spec{MTBF: 1000}, false},
		{"negative MTTR", Spec{MTBF: 1000, MTTR: -1}, false},
		{"cap below base", Spec{MTBF: 1000, MTTR: 900, RetryBase: 100, RetryCap: 10}, false},
		{"explicit base above defaulted cap", Spec{MTBF: 1000, MTTR: 900, RetryBase: 700}, false},
		{"explicit cap below defaulted base", Spec{MTBF: 1000, MTTR: 900, RetryCap: 5}, false},
		{"base equals cap", Spec{MTBF: 1000, MTTR: 900, RetryBase: 50, RetryCap: 50}, true},
		{"negative base", Spec{MTBF: 1000, MTTR: 900, RetryBase: -1}, false},
		{"NaN base", Spec{MTBF: 1000, MTTR: 900, RetryBase: math.NaN()}, false},
		{"infinite cap", Spec{MTBF: 1000, MTTR: 900, RetryCap: math.Inf(1)}, false},
		{"checkpointing", Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: 300}, true},
		{"negative checkpoint interval", Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: -1}, false},
		{"NaN checkpoint interval", Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: math.NaN()}, false},
		{"infinite checkpoint interval", Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: math.Inf(1)}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	s := Spec{MTBF: 1000, MTTR: 900}.Normalized()
	want := []float64{10, 20, 40, 80, 160, 320, 600, 600}
	for i, w := range want {
		if got := s.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %g, want %g", i+1, got, w)
		}
	}
	if got := s.Backoff(0); got != 10 {
		t.Errorf("Backoff(0) = %g, want the base", got)
	}
	// Huge retry counts must saturate at the cap, not overflow: Ldexp
	// with these exponents is +Inf, which the cap comparison absorbs.
	for _, retry := range []int{5000, 1 << 40, math.MaxInt} {
		got := s.Backoff(retry)
		if got != 600 {
			t.Errorf("Backoff(%d) = %g, want 600", retry, got)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("Backoff(%d) = %g escaped the cap", retry, got)
		}
	}
	// Nonsensical retry counts clamp to the first-retry base.
	for _, retry := range []int{0, -3, math.MinInt} {
		if got := s.Backoff(retry); got != 10 {
			t.Errorf("Backoff(%d) = %g, want the base", retry, got)
		}
	}
	// A spec that skipped Normalized still backs off with the defaults —
	// a raw zero cap must not clamp every delay to zero.
	raw := Spec{MTBF: 1000, MTTR: 900}
	if got := raw.Backoff(1); got != 10 {
		t.Errorf("un-normalized Backoff(1) = %g, want the 10 s default base", got)
	}
	if got := raw.Backoff(100); got != 600 {
		t.Errorf("un-normalized Backoff(100) = %g, want the 600 s default cap", got)
	}
	// Base equal to cap saturates immediately and stays there.
	flat := Spec{MTBF: 1000, MTTR: 900, RetryBase: 600, RetryCap: 600}
	if got := flat.Backoff(1); got != 600 {
		t.Errorf("flat-window Backoff(1) = %g, want 600", got)
	}
}

func TestNewInjectorRejectsEmptyRetryWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewInjector accepted a base above the defaulted cap")
		}
	}()
	// RetryCap defaults to 600 s, below the explicit 700 s base: every
	// construction path must reject the empty window, not silently run
	// with cap < base.
	NewInjector(Spec{MTBF: 1000, MTTR: 900, RetryBase: 700}, 2, rng.NewSource(1))
}

// TestCheckpointedArithmetic pins the floor-to-multiple rule and its two
// disabled cases (zero interval, non-positive progress).
func TestCheckpointedArithmetic(t *testing.T) {
	s := Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: 100}
	cases := []struct{ progress, want float64 }{
		{0, 0},
		{-5, 0},
		{99.999, 0},
		{100, 100},
		{250, 200},
		{300, 300},
		{1e6 + 50, 1e6},
	}
	for _, c := range cases {
		if got := s.Checkpointed(c.progress); got != c.want {
			t.Errorf("Checkpointed(%g) = %g, want %g", c.progress, got, c.want)
		}
	}
	off := Spec{MTBF: 1000, MTTR: 900}
	if got := off.Checkpointed(500); got != 0 {
		t.Errorf("disabled Checkpointed(500) = %g, want 0", got)
	}
}

// TestInjectorDeterminism pins the determinism contract: same seed, same
// draw sequence; distinct clusters draw from distinct streams.
func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{MTBF: 2000, MTTR: 600}
	a := NewInjector(spec, 3, rng.NewSource(7))
	b := NewInjector(spec, 3, rng.NewSource(7))
	for i := 0; i < 100; i++ {
		for c := 0; c < 3; c++ {
			if a.NextFailure(c) != b.NextFailure(c) {
				t.Fatalf("failure draw %d cluster %d diverged between same-seed injectors", i, c)
			}
			if a.RepairDelay(c) != b.RepairDelay(c) {
				t.Fatalf("repair draw %d cluster %d diverged between same-seed injectors", i, c)
			}
		}
	}
	c0 := NewInjector(spec, 2, rng.NewSource(7))
	if c0.NextFailure(0) == c0.NextFailure(1) {
		t.Error("clusters 0 and 1 drew the same first failure time: streams not distinct")
	}
}

func TestNewInjectorPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewInjector accepted a disabled spec")
		}
	}()
	NewInjector(Spec{}, 2, rng.NewSource(1))
}

func job(id int64, start float64, placement []int) *workload.Job {
	comps := make([]int, len(placement))
	for i := range comps {
		comps[i] = 1
	}
	return &workload.Job{ID: id, Components: comps, Placement: placement, StartTime: start}
}

func TestSelectVictimMostRecentStart(t *testing.T) {
	running := []*workload.Job{
		job(1, 10, []int{0, 1}),
		job(2, 30, []int{1, 2}),
		job(3, 20, []int{1}),
		job(4, 50, []int{0}), // most recent overall, but not on cluster 1
	}
	if got := SelectVictim(running, 1); got != 1 {
		t.Errorf("SelectVictim picked index %d (job %d), want index 1 (job 2)",
			got, running[got].ID)
	}
}

func TestSelectVictimTieBreaksOnID(t *testing.T) {
	running := []*workload.Job{
		job(9, 10, []int{0}),
		job(4, 10, []int{0}),
	}
	if got := SelectVictim(running, 0); running[got].ID != 9 {
		t.Errorf("SelectVictim picked job %d, want the higher ID 9", running[got].ID)
	}
}

func TestSelectVictimOrderIndependent(t *testing.T) {
	fwd := []*workload.Job{job(1, 5, []int{2}), job(2, 7, []int{2}), job(3, 6, []int{2})}
	rev := []*workload.Job{fwd[2], fwd[1], fwd[0]}
	if fwd[SelectVictim(fwd, 2)].ID != rev[SelectVictim(rev, 2)].ID {
		t.Error("victim choice depends on registry order")
	}
}

func TestSelectVictimPanicsWithoutOccupant(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SelectVictim accepted a cluster no running job occupies")
		}
		if !strings.Contains(r.(string), "no running job") {
			t.Errorf("unexpected panic %v", r)
		}
	}()
	SelectVictim([]*workload.Job{job(1, 0, []int{0})}, 3)
}

func TestSelectVictimPanicsOnMissingPlacement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SelectVictim accepted a running job without a placement")
		}
	}()
	SelectVictim([]*workload.Job{{ID: 1, Components: []int{4}}}, 0)
}
