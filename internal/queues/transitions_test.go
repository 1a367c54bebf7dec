package queues

import (
	"slices"
	"testing"
)

// TestEnableSetTransitions checks that every disable and enable transition
// is reported exactly once, in the order the policies log it: Disable
// reports whether the queue was enabled (a redundant Disable reports
// false), and both EnableAll variants return the re-enabled queues in
// disable order.
func TestEnableSetTransitions(t *testing.T) {
	s := NewEnableSet(4)
	if !s.Disable(2) || !s.Disable(0) {
		t.Fatal("Disable of an enabled queue reported no transition")
	}
	if s.Disable(2) {
		t.Fatal("Disable of a disabled queue reported a transition")
	}
	if got := s.EnableAll(); !slices.Equal(got, []int{2, 0}) {
		t.Fatalf("EnableAll re-enabled %v, want [2 0]", got)
	}
	if got := s.EnableAll(); len(got) != 0 {
		t.Fatalf("EnableAll with nothing disabled re-enabled %v", got)
	}

	s.Disable(3)
	s.Disable(1)
	if got := s.EnableAllSorted(); !slices.Equal(got, []int{3, 1}) {
		t.Fatalf("EnableAllSorted re-enabled %v, want [3 1]", got)
	}
	for q := 0; q < 4; q++ {
		if !s.IsEnabled(q) {
			t.Fatalf("queue %d disabled after EnableAllSorted", q)
		}
	}
	if got := s.EnableAllSorted(); len(got) != 0 {
		t.Fatalf("EnableAllSorted with nothing disabled re-enabled %v", got)
	}
}

// TestEnableSetNilObserver: an EnableSet keeps no observer — it only
// returns its transitions for the policy to report — so a mixed
// EnableAll / EnableAllSorted sequence behaves the same whether or not
// the run is observed, and ends with every queue enabled.
func TestEnableSetNilObserver(t *testing.T) {
	s := NewEnableSet(3)
	s.Disable(1)
	s.EnableAll()
	s.Disable(0)
	s.EnableAllSorted()
	for q := 0; q < 3; q++ {
		if !s.IsEnabled(q) {
			t.Fatalf("queue %d disabled after EnableAllSorted", q)
		}
	}
}
