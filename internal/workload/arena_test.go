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
	j.Components = a.Ints(3)
	a.Reset()
	j2 := a.Job()
	if j2.ID != 0 || j2.TotalSize != 0 || j2.Components != nil {
		t.Fatalf("recycled job slot not zeroed: %+v", j2)
	}
}

func TestArenaIntsCapPinned(t *testing.T) {
	a := NewArena()
	s1 := a.Ints(3)
	s2 := a.Ints(3)
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
	s := a.Ints(4)
	copy(s, []int{1, 2, 3, 4})
	a.Reset()
	s2 := a.Ints(4)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled carve not zeroed at %d: %v", i, s2)
		}
	}
}

func TestArenaLargeCarve(t *testing.T) {
	a := NewArena()
	s := a.Ints(3 * arenaIntBlock)
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
	if s := a.Ints(2); len(s) != 2 {
		t.Fatalf("nil arena Ints(2) = %v", s)
	}
	if s := a.CopyInts([]int{5, 6}); !reflect.DeepEqual(s, []int{5, 6}) {
		t.Fatalf("nil arena CopyInts = %v", s)
	}
	a.Reset() // must not panic
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
