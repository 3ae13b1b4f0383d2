// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Distributed algorithms in this codebase need per-node private randomness
// (the CONGEST model grants each vertex unlimited local random bits but no
// shared randomness). To keep whole-system runs reproducible, every node
// derives its stream deterministically from a global seed and its vertex ID
// via Fork. The generator is splitmix64, which passes BigCrush and has a
// trivially splittable state, making Fork well-defined and collision-free
// for our purposes.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic splitmix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from the receiver's seed and the
// given stream identifier. Calling Fork with distinct ids yields streams
// that are independent for all practical purposes; the receiver is not
// advanced.
func (r *RNG) Fork(id uint64) *RNG {
	// Mix the id through one splitmix64 step so that consecutive ids do
	// not produce correlated seeds.
	z := r.state + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly random integer in [0, n). It panics if n <= 0,
// mirroring math/rand's contract.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63 returns a uniformly random non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniformly random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exponential returns a sample from the exponential distribution with rate
// beta (mean 1/beta). It panics if beta <= 0.
func (r *RNG) Exponential(beta float64) float64 {
	if beta <= 0 {
		panic("rng: Exponential called with beta <= 0")
	}
	// Inverse transform sampling. 1-Float64() is in (0, 1], avoiding
	// log(0).
	return -math.Log(1-r.Float64()) / beta
}

// Perm returns a uniformly random permutation of [0, n), like
// math/rand.Perm.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedIndex samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise WeightedIndex panics. It runs in O(len(weights)).
func (r *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: WeightedIndex with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
