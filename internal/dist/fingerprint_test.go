package dist

import "testing"

func TestEmpiricalIntFingerprintValueIdentity(t *testing.T) {
	a := NewEmpiricalInt([]int{1, 2, 4}, []float64{0.5, 0.3, 0.2})
	b := NewEmpiricalInt([]int{1, 2, 4}, []float64{0.5, 0.3, 0.2})
	if a == b {
		t.Fatal("want distinct allocations")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("value-equal EmpiricalInt distributions fingerprint differently")
	}
	c := NewEmpiricalInt([]int{1, 2, 4}, []float64{0.5, 0.2, 0.3})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different probabilities share a fingerprint")
	}
	d := NewEmpiricalInt([]int{1, 2, 8}, []float64{0.5, 0.3, 0.2})
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("different supports share a fingerprint")
	}
}

func TestEmpiricalContFingerprintValueIdentity(t *testing.T) {
	a := NewEmpiricalCont([]float64{1, 5, 9})
	b := NewEmpiricalCont([]float64{1, 5, 9})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("value-equal EmpiricalCont distributions fingerprint differently")
	}
	// Sampling picks by index, so order is part of the identity.
	c := NewEmpiricalCont([]float64{9, 5, 1})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("reordered observations share a fingerprint")
	}
}

func TestFingerprintOf(t *testing.T) {
	a := FingerprintOf(NewEmpiricalCont([]float64{1, 2}))
	b := FingerprintOf(NewEmpiricalCont([]float64{1, 2}))
	if a != b {
		t.Errorf("value-equal empirical: %q vs %q", a, b)
	}
	if FingerprintOf(NewExponential(1)) != FingerprintOf(NewExponential(1)) {
		t.Error("equal parametric distributions render differently")
	}
	if FingerprintOf(NewExponential(1)) == FingerprintOf(NewExponential(2)) {
		t.Error("different rates render identically")
	}
}
