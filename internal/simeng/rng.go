// Package simeng provides the deterministic discrete-event simulation
// core used by every experiment in this repository: a simulation clock,
// an event queue, and seedable random-number streams.
//
// All experiment randomness flows through RNG so that a single seed
// reproduces an entire experiment bit-for-bit, independent of goroutine
// scheduling and map iteration order.
package simeng

import "math"

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64 for stream splitting and xoshiro256** for generation.
// The zero value is not valid; use NewRNG.
//
// RNG is intentionally not safe for concurrent use: each simulated
// entity that needs randomness should own its own stream, obtained
// via Split, so that adding entities does not perturb the draws seen
// by existing ones.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next value.
// It is used both to seed xoshiro from a single word and to derive
// independent child streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given 64-bit seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed (re)initializes the receiver in place from a 64-bit seed,
// producing exactly the state NewRNG(seed) would. It exists so callers
// that keep RNG values in preallocated slabs (e.g. the engine's
// per-task columnar state) can seed them without a heap allocation.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
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

// Split returns a new RNG whose stream is statistically independent of
// the receiver's. The receiver advances by one draw.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitInto(child)
	return child
}

// SplitInto is Split writing the child stream into caller-provided
// storage: child receives exactly the state Split would have returned,
// and the receiver advances by the same one draw. It is the
// allocation-free variant for slab-resident RNGs.
func (r *RNG) SplitInto(child *RNG) {
	child.Seed(r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly 0,
// suitable for inverse-CDF sampling of distributions with a pole at 0.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simeng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// NormFloat64 returns a standard normal deviate (mean 0, stddev 1)
// using the Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}
