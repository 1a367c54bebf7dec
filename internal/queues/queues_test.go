package queues

import (
	"testing"
	"testing/quick"

	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

func job(id int64) *workload.Job { return &workload.Job{ID: id, Components: []int{1}} }

func TestFIFOOrder(t *testing.T) {
	var q FIFO
	if !q.Empty() || q.Len() != 0 || q.Head() != nil {
		t.Error("zero FIFO should be empty")
	}
	for i := int64(1); i <= 5; i++ {
		q.Push(job(i))
	}
	if q.Len() != 5 || q.Empty() {
		t.Errorf("len %d", q.Len())
	}
	if q.Head().ID != 1 {
		t.Errorf("head %d", q.Head().ID)
	}
	for i := int64(1); i <= 5; i++ {
		if got := q.Pop(); got.ID != i {
			t.Fatalf("pop %d, want %d", got.ID, i)
		}
	}
	if !q.Empty() {
		t.Error("not empty after draining")
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty FIFO did not panic")
		}
	}()
	var q FIFO
	q.Pop()
}

func TestFIFOCompaction(t *testing.T) {
	var q FIFO
	// Interleave pushes and pops across the compaction threshold.
	next := int64(1)
	expect := int64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			q.Push(job(next))
			next++
		}
		for i := 0; i < 9; i++ {
			if got := q.Pop(); got.ID != expect {
				t.Fatalf("pop %d, want %d", got.ID, expect)
			}
			expect++
		}
	}
	if q.Len() != 50 {
		t.Errorf("len %d, want 50", q.Len())
	}
	for !q.Empty() {
		if got := q.Pop(); got.ID != expect {
			t.Fatalf("drain pop %d, want %d", got.ID, expect)
		}
		expect++
	}
}

// TestFIFOMatchesReference drives random push/pop sequences against a
// plain-slice reference implementation.
func TestFIFOMatchesReference(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		var q FIFO
		var ref []*workload.Job
		id := int64(0)
		for step := 0; step < 500; step++ {
			if r.Intn(2) == 0 || len(ref) == 0 {
				id++
				j := job(id)
				q.Push(j)
				ref = append(ref, j)
			} else {
				want := ref[0]
				ref = ref[1:]
				if q.Pop() != want {
					return false
				}
			}
			if q.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 && q.Head() != ref[0] {
				return false
			}
			if len(ref) == 0 && q.Head() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnableSetInitial(t *testing.T) {
	s := NewEnableSet(4)
	if len(s.disabled) != 0 {
		t.Error("fresh set should be fully enabled")
	}
	got := s.Enabled()
	if len(got) != 4 {
		t.Fatalf("enabled %v", got)
	}
	for i, q := range got {
		if q != i {
			t.Errorf("initial order %v", got)
		}
		if !s.IsEnabled(i) {
			t.Errorf("queue %d should be enabled", i)
		}
	}
}

func TestEnableSetDisableRemovesFromOrder(t *testing.T) {
	s := NewEnableSet(4)
	s.Disable(2)
	s.Disable(0)
	if s.IsEnabled(2) || s.IsEnabled(0) {
		t.Error("disabled queues still enabled")
	}
	got := s.Enabled()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("enabled %v, want [1 3]", got)
	}
	if len(s.disabled) != 2 {
		t.Errorf("disabled count %d", len(s.disabled))
	}
	// Disabling again is a no-op.
	s.Disable(2)
	if len(s.disabled) != 2 {
		t.Error("double disable changed state")
	}
}

func TestEnableAllRestoresInDisableOrder(t *testing.T) {
	s := NewEnableSet(4)
	s.Disable(2)
	s.Disable(0)
	s.Disable(3)
	s.EnableAll()
	// Queue 1 never left the order; 2, 0, 3 rejoin in disable order.
	got := s.Enabled()
	want := []int{1, 2, 0, 3}
	if len(got) != 4 {
		t.Fatalf("enabled %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after EnableAll %v, want %v", got, want)
		}
	}
	for q := 0; q < 4; q++ {
		if !s.IsEnabled(q) {
			t.Errorf("queue %d still disabled after EnableAll", q)
		}
	}
	if len(s.disabled) != 0 {
		t.Error("disabled list not cleared")
	}
}

func TestEnableSetAllDisabled(t *testing.T) {
	s := NewEnableSet(2)
	s.Disable(0)
	s.Disable(1)
	if len(s.Enabled()) > 0 {
		t.Error("a queue is enabled with everything disabled")
	}
	s.EnableAll()
	got := s.Enabled()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("order %v, want [0 1]", got)
	}
}

func TestEnableSetPanics(t *testing.T) {
	func() {
		defer func() { recover() }()
		NewEnableSet(0)
		t.Error("NewEnableSet(0) did not panic")
	}()
	func() {
		defer func() { recover() }()
		NewEnableSet(2).Disable(5)
		t.Error("Disable out of range did not panic")
	}()
}

// TestEnableSetInvariant: under random disable/enable sequences, the
// enabled list and state array always agree and no queue is duplicated.
func TestEnableSetInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		n := 1 + r.Intn(8)
		s := NewEnableSet(n)
		for step := 0; step < 200; step++ {
			if r.Intn(4) == 0 {
				s.EnableAll()
			} else {
				s.Disable(r.Intn(n))
			}
			seen := map[int]bool{}
			for _, q := range s.Enabled() {
				if seen[q] || !s.IsEnabled(q) {
					return false
				}
				seen[q] = true
			}
			enabledCount := 0
			for q := 0; q < n; q++ {
				if s.IsEnabled(q) {
					enabledCount++
				}
			}
			if enabledCount != len(s.Enabled()) || enabledCount+len(s.disabled) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEnableSetOrderMatchesReference drives random disable/enable-all
// sequences against a naive slice-based model of the paper's ordering
// contract and requires the set to report the exact same visit order at
// every step.
func TestEnableSetOrderMatchesReference(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		n := 1 + r.Intn(8)
		s := NewEnableSet(n)
		// Reference model: the visit order as a slice, plus the disable
		// order.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		var disabled []int
		for step := 0; step < 300; step++ {
			switch r.Intn(6) {
			case 0:
				s.EnableAll()
				order = append(order, disabled...)
				disabled = disabled[:0]
			case 1:
				s.EnableAllSorted()
				order = order[:0]
				for i := 0; i < n; i++ {
					order = append(order, i)
				}
				disabled = disabled[:0]
			default:
				q := r.Intn(n)
				s.Disable(q)
				for i, v := range order {
					if v == q {
						order = append(order[:i], order[i+1:]...)
						disabled = append(disabled, q)
						break
					}
				}
			}
			got := s.Enabled()
			if len(got) != len(order) {
				return false
			}
			for i := range order {
				if got[i] != order[i] {
					return false
				}
			}
			if len(s.disabled) != len(disabled) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEnableSetDisableNoAlloc pins the hot-path property: in the steady
// state (disabled capacity warmed up), a disable/enable-all cycle
// allocates nothing.
func TestEnableSetDisableNoAlloc(t *testing.T) {
	s := NewEnableSet(8)
	// Warm the disabled slice's capacity.
	for q := 0; q < 8; q++ {
		s.Disable(q)
	}
	s.EnableAll()
	s.Enabled()
	allocs := testing.AllocsPerRun(100, func() {
		s.Disable(3)
		s.Disable(6)
		s.Enabled()
		s.EnableAll()
		s.Enabled()
	})
	if allocs != 0 {
		t.Errorf("disable/enable-all cycle allocates %.1f times per run, want 0", allocs)
	}
}

func TestForEachWaiting(t *testing.T) {
	var q FIFO
	for i := int64(1); i <= 5; i++ {
		q.Push(job(i))
	}
	q.Pop() // drop job 1; remaining 2..5 with head index advanced
	var got []int64
	q.ForEachWaiting(func(idx int, j *workload.Job) bool {
		if int64(idx+2) != j.ID {
			t.Fatalf("index %d for job %d", idx, j.ID)
		}
		got = append(got, j.ID)
		return j.ID < 4 // stop early
	})
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("visited %v", got)
	}
}

func TestRemoveAll(t *testing.T) {
	var q FIFO
	jobs := make([]*workload.Job, 6)
	for i := range jobs {
		jobs[i] = job(int64(i + 1))
		q.Push(jobs[i])
	}
	q.Pop()                                        // head advances past job 1
	q.RemoveAll([]*workload.Job{jobs[2], jobs[4]}) // jobs 3 and 5
	var got []int64
	q.ForEachWaiting(func(_ int, j *workload.Job) bool {
		got = append(got, j.ID)
		return true
	})
	want := []int64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("remaining %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remaining %v, want %v", got, want)
		}
	}
	if q.Len() != 3 {
		t.Errorf("len %d", q.Len())
	}
	// Removing nothing is a no-op.
	q.RemoveAll(nil)
	if q.Len() != 3 {
		t.Error("RemoveAll(nil) changed the queue")
	}
	// Pop order preserved after removal.
	if q.Pop().ID != 2 || q.Pop().ID != 4 || q.Pop().ID != 6 {
		t.Error("pop order after RemoveAll")
	}
	// A job not queued, or jobs out of queue order, panic: the merge
	// would otherwise drop nothing and hide a policy's bookkeeping fault.
	for _, bad := range [][]*workload.Job{
		{jobs[3], job(99)},
		{jobs[5], jobs[1]},
	} {
		var q FIFO
		for _, j := range jobs {
			q.Push(j)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RemoveAll(%d, %d) did not panic", bad[0].ID, bad[1].ID)
				}
			}()
			q.RemoveAll(bad)
		}()
	}
}

// TestRemoveAllMatchesReference drives random push/pop/remove sequences
// against a slice reference.
func TestRemoveAllMatchesReference(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.NewStream(seed)
		var q FIFO
		var ref []*workload.Job
		id := int64(0)
		for step := 0; step < 300; step++ {
			switch {
			case r.Intn(3) == 0 && len(ref) > 0:
				// Remove a random subset.
				var drop []*workload.Job
				var keep []*workload.Job
				for _, j := range ref {
					if r.Intn(4) == 0 {
						drop = append(drop, j)
					} else {
						keep = append(keep, j)
					}
				}
				q.RemoveAll(drop)
				ref = keep
			case r.Intn(2) == 0 && len(ref) > 0:
				if q.Pop() != ref[0] {
					return false
				}
				ref = ref[1:]
			default:
				id++
				j := job(id)
				q.Push(j)
				ref = append(ref, j)
			}
			if q.Len() != len(ref) {
				return false
			}
			i := 0
			ok := true
			q.ForEachWaiting(func(idx int, j *workload.Job) bool {
				if idx != i || j != ref[i] {
					ok = false
					return false
				}
				i++
				return true
			})
			if !ok || i != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnableAllSorted(t *testing.T) {
	s := NewEnableSet(4)
	s.Disable(2)
	s.Disable(0)
	s.EnableAllSorted()
	got := s.Enabled()
	for i, q := range got {
		if q != i {
			t.Fatalf("sorted order %v", got)
		}
	}
	for q := 0; q < 4; q++ {
		if !s.IsEnabled(q) {
			t.Errorf("queue %d disabled after EnableAllSorted", q)
		}
	}
	if len(s.disabled) != 0 {
		t.Error("disabled list not cleared")
	}
}

// TestRemoveAllSmallBatchZeroAlloc pins that removing the handful of jobs
// a backfilling pass starts allocates nothing.
func TestRemoveAllSmallBatchZeroAlloc(t *testing.T) {
	var q FIFO
	jobs := make([]*workload.Job, 64)
	for i := range jobs {
		jobs[i] = job(int64(i + 1))
	}
	batch := make([]*workload.Job, 0, 3)
	cycle := func() {
		for _, j := range jobs {
			q.Push(j)
		}
		batch = append(batch[:0], jobs[3], jobs[17], jobs[40])
		q.RemoveAll(batch)
		for q.Len() > 0 {
			q.Pop()
		}
	}
	for i := 0; i < 10; i++ {
		cycle() // warm the backing slice
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("small-batch RemoveAll cycle allocates %.2f per run, want 0", a)
	}
}
