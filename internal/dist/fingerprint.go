package dist

import (
	"fmt"
	"math"
)

// Fingerprinter is implemented by distributions whose identity is their
// data rather than their parameters. Two distributions with equal
// fingerprints sample identically from identical stream states, so caches
// may treat them as the same distribution.
//
// The parametric distributions (Exponential, Gamma) are plain
// value types whose parameters print completely — FingerprintOf covers
// them without this interface.
type Fingerprinter interface {
	Fingerprint() uint64
}

// FNV-1a, 64-bit. Hand-rolled over float bits so the hash is a pure
// function of the sample data, with no intermediate string allocation.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvFloat(h uint64, f float64) uint64 { return fnvUint64(h, math.Float64bits(f)) }

// Fingerprint hashes the support and probabilities. Two EmpiricalInt
// values built from the same data hash equally even when they are distinct
// allocations — the property the experiment trace cache keys on.
func (d *EmpiricalInt) Fingerprint() uint64 {
	h := fnvUint64(fnvOffset, uint64(len(d.values)))
	for i, v := range d.values {
		h = fnvUint64(h, uint64(int64(v)))
		h = fnvFloat(h, d.probs[i])
	}
	return h
}

// Fingerprint hashes the observation sample in order. Construction order
// matters to sampling (index draws pick observations), so it matters to
// the fingerprint too.
func (d *EmpiricalCont) Fingerprint() uint64 {
	h := fnvUint64(fnvOffset, uint64(len(d.sample)))
	for _, x := range d.sample {
		h = fnvFloat(h, x)
	}
	return h
}

// FingerprintOf renders a comparable identity string for any distribution:
// the dynamic type plus either the data fingerprint (Fingerprinter) or the
// printed parameters (the parametric value types, whose fields are all
// exported-equivalent under %+v). Two distributions with equal identity
// strings produce identical draws from identical stream states.
func FingerprintOf(d any) string {
	if fp, ok := d.(Fingerprinter); ok {
		return fmt.Sprintf("%T#%016x", d, fp.Fingerprint())
	}
	return fmt.Sprintf("%T%+v", d, d)
}
