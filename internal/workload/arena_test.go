package workload

import (
	"reflect"
	"testing"

	"coalloc/internal/rng"
)

func TestArenaJobZeroedAfterReset(t *testing.T) {
	a := NewArena()
	j := a.Job()
	j.ID = 42
	j.TotalSize = 7
	j.Components = a.Ints(nil, 3)
	a.Reset()
	j2 := a.Job()
	if j2.ID != 0 || j2.TotalSize != 0 || j2.Components != nil {
		t.Fatalf("recycled job slot not zeroed: %+v", j2)
	}
}

func TestArenaIntsCapPinned(t *testing.T) {
	a := NewArena()
	s1 := a.Ints(nil, 3)
	s2 := a.Ints(nil, 3)
	if cap(s1) != 3 {
		t.Fatalf("carved slice cap = %d, want 3 (full slice expression)", cap(s1))
	}
	s1 = append(s1, 99) // must reallocate, not scribble on s2
	if s2[0] != 0 {
		t.Fatalf("append to one carve corrupted its neighbour: %v", s2)
	}
	_ = s1
}

func TestArenaIntsZeroed(t *testing.T) {
	a := NewArena()
	s := a.Ints(nil, 4)
	copy(s, []int{1, 2, 3, 4})
	a.Reset()
	s2 := a.Ints(nil, 4)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled carve not zeroed at %d: %v", i, s2)
		}
	}
}

func TestArenaLargeCarve(t *testing.T) {
	a := NewArena()
	s := a.Ints(nil, 3*arenaIntBlock)
	if len(s) != 3*arenaIntBlock {
		t.Fatalf("oversized carve length %d", len(s))
	}
}

func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	j := a.Job()
	if j == nil {
		t.Fatal("nil arena Job returned nil")
	}
	if s := a.Ints(nil, 2); len(s) != 2 {
		t.Fatalf("nil arena Ints(2) = %v", s)
	}
	if s := a.CopyInts(nil, []int{5, 6}); !reflect.DeepEqual(s, []int{5, 6}) {
		t.Fatalf("nil arena CopyInts = %v", s)
	}
	a.Release(j) // must not panic
	a.Reset()
}

// TestArenaReleaseReusesSlot pins the free list: a released slot is the
// next Job, it comes back zeroed but for its int buffers, those buffers
// are refilled in place when they are large enough, and Reset empties
// the free list.
func TestArenaReleaseReusesSlot(t *testing.T) {
	spec := Spec{ComponentLimit: 16, Clusters: 4, ExtensionFactor: DefaultExtensionFactor}
	a := NewArena()
	j := spec.JobFromDraws(a, 40, 100) // three components
	j.ID = 7
	j.Placement = a.CopyInts(j.Placement, []int{2, 0, 1})
	comps, place := &j.Components[0], &j.Placement[0]
	a.Release(j)

	k := a.Job()
	if k != j {
		t.Fatal("the released slot is not the next Job")
	}
	if k.ID != 0 || len(k.Components) != 0 || len(k.Placement) != 0 || k.OrderedPlacement != nil {
		t.Fatalf("recycled slot not cleared: %+v", *k)
	}
	a.Release(k)
	k = spec.JobFromDraws(a, 20, 50) // two components fit the old buffer
	if k != j || &k.Components[0] != comps {
		t.Fatal("JobFromDraws did not refill the released slot's component buffer")
	}
	if !reflect.DeepEqual(k.Components, []int{10, 10}) || k.ExtendedServiceTime != 50*DefaultExtensionFactor {
		t.Fatalf("refilled job %+v", *k)
	}
	if k.Placement = a.CopyInts(k.Placement, []int{3, 1}); &k.Placement[0] != place {
		t.Fatal("CopyInts did not refill the released slot's placement buffer")
	}
	a.Release(k)
	if k = spec.JobFromDraws(a, 64, 1); &k.Components[0] == comps || len(k.Components) != 4 {
		t.Fatalf("four components written into a three-int buffer: %v", k.Components)
	}

	a.Release(k)
	a.Reset()
	if len(a.free) != 0 {
		t.Fatalf("Reset left %d released slots", len(a.free))
	}
	if k = a.Job(); k.Components != nil || k.Placement != nil {
		t.Fatalf("first Job after Reset kept buffers: %+v", *k)
	}
}

func TestAppendSplitMatchesSplit(t *testing.T) {
	for total := 1; total <= 128; total++ {
		for _, limit := range []int{16, 24, 32} {
			want := Split(total, limit, 4)
			got := AppendSplit(make([]int, 0, 8), total, limit, 4)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("AppendSplit(%d,%d,4) = %v, want %v", total, limit, got, want)
			}
		}
	}
}

// TestSampleIntoMatchesSample pins the arena-vs-heap bit-identity of the
// sampling path: for the same stream state, SampleInto with an arena must
// produce jobs whose every field equals Sample's, draw for draw.
func TestSampleIntoMatchesSample(t *testing.T) {
	d := DeriveDefault()
	spec := Spec{
		Sizes:           d.Sizes128,
		Service:         d.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: DefaultExtensionFactor,
	}
	for _, typ := range []RequestType{Unordered, Ordered, Flexible, Total} {
		src1 := rng.NewSource(99)
		src2 := rng.NewSource(99)
		sz1, sv1, pl1 := src1.Stream("s"), src1.Stream("v"), src1.Stream("p")
		sz2, sv2, pl2 := src2.Stream("s"), src2.Stream("v"), src2.Stream("p")
		a := NewArena()
		for i := 0; i < 500; i++ {
			if i == 250 {
				a.Reset() // mid-run reset must not perturb the draws
			}
			heap := spec.SampleTypedInto(nil, typ, sz1, sv1, pl1)
			pooled := spec.SampleTypedInto(a, typ, sz2, sv2, pl2)
			if !reflect.DeepEqual(*heap, *pooled) {
				t.Fatalf("%s draw %d: heap %+v != arena %+v", typ, i, *heap, *pooled)
			}
		}
	}
}

// TestSampleIntoZeroAlloc pins the steady-state allocation count of
// arena-backed sampling at zero.
func TestSampleIntoZeroAlloc(t *testing.T) {
	d := DeriveDefault()
	spec := Spec{
		Sizes:           d.Sizes128,
		Service:         d.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: DefaultExtensionFactor,
	}
	src := rng.NewSource(7)
	sz, sv := src.Stream("s"), src.Stream("v")
	a := NewArena()
	// Warm the arena past its first blocks, then reset: the steady state.
	for i := 0; i < 5000; i++ {
		spec.SampleInto(a, sz, sv)
	}
	a.Reset()
	n := 0
	allocs := testing.AllocsPerRun(2000, func() {
		spec.SampleInto(a, sz, sv)
		n++
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f objects per job in steady state, want 0", allocs)
	}
}
