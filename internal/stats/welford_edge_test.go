package stats

import "testing"

// TestTimeWeightedDecreasingReadPanics: reading the integral at a time
// before the last update is a caller bug (it silently dropped the final
// partial interval before this check existed) and must panic.
func TestTimeWeightedDecreasingReadPanics(t *testing.T) {
	for _, read := range []struct {
		name string
		call func(tw *TimeWeighted)
	}{
		{"Integral", func(tw *TimeWeighted) { tw.Integral(5) }},
		{"Average", func(tw *TimeWeighted) { tw.Average(5) }},
	} {
		t.Run(read.name, func(t *testing.T) {
			var tw TimeWeighted
			tw.StartAt(0, 2)
			tw.Set(10, 4)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s at t=5 after update at t=10 did not panic", read.name)
				}
			}()
			read.call(&tw)
		})
	}
}

// TestTimeWeightedIntegralAtLastTime: reading exactly at the last update
// time is legal and returns the accumulated integral.
func TestTimeWeightedIntegralAtLastTime(t *testing.T) {
	var tw TimeWeighted
	tw.StartAt(0, 2)
	tw.Set(10, 4)
	if got := tw.Integral(10); got != 20 {
		t.Fatalf("Integral(10) = %g, want 20", got)
	}
	if got := tw.Integral(15); got != 40 {
		t.Fatalf("Integral(15) = %g, want 40", got)
	}
}
