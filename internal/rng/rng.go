// Package rng provides deterministic pseudo-random number streams for the
// simulator.
//
// Every stochastic component of a simulation (arrival process, job sizes,
// service times, queue routing) draws from its own independent stream so
// that changing one component — for example, swapping the scheduling policy
// or adding a sampler — never perturbs the random numbers seen by the
// others. This "common random numbers" discipline is what makes the
// policy-comparison curves in the paper meaningful: all policies are fed
// byte-for-byte identical workloads.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman and Vigna. It is small, allocation-free, passes
// BigCrush, and is fully reproducible across platforms, unlike math/rand's
// global source.
package rng

import "math"

// Stream is a deterministic random number generator. It is NOT safe for
// concurrent use; give each goroutine its own Stream (see Source.Stream).
type Stream struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro state vectors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns a Stream seeded from seed. Distinct seeds give
// statistically independent streams.
func NewStream(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// A xoshiro state of all zeros is a fixed point; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform variate in the open interval (0, 1),
// suitable for inversion formulas that take a logarithm of the result.
func (r *Stream) OpenFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(r.OpenFloat64()) / rate
}

// Normal returns a standard normal variate via Marsaglia's polar method.
func (r *Stream) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Source derives independent Streams from a master seed. Components ask for
// streams by name; the same (seed, name) pair always yields the same stream,
// regardless of the order in which streams are requested.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Stream returns the stream identified by name. Calling Stream twice with
// the same name returns two streams in identical states.
func (s *Source) Stream(name string) *Stream {
	h := fnv1a(name)
	// Mix the master seed and the name hash through SplitMix64 so that
	// related seeds (seed, seed+1) still give unrelated streams.
	sm := s.seed ^ rotl(h, 31)
	_ = splitMix64(&sm)
	return NewStream(splitMix64(&sm))
}

// fnv1a hashes a string with the 64-bit FNV-1a function.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
