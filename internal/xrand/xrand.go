// Package xrand provides a small, deterministic pseudo-random number
// generator used by every data generator and model in this repository.
//
// Reproducibility is a hard requirement for the experiment harness: the
// same seed must yield the same datasets, the same model initializations
// and therefore the same measured results on every run and platform.
// The generator is an implementation of SplitMix64 (Steele, Lea &
// Flood), which passes BigCrush, is allocation-free, and is trivially
// splittable so that independent subsystems can derive independent
// streams from one root seed.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator. The zero
// value is a valid generator seeded with 0; use New to seed it
// explicitly.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new independent generator from r. The parent stream
// advances by one step, so repeated Split calls yield distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// gamma is SplitMix64's state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Jump advances r past n draws of Uint64, in O(1).
func (r *Rand) Jump(n uint64) {
	r.state += n * gamma
}

// Intn returns an int uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded integers would be overkill
	// here; modulo bias is negligible for the n (< 2^32) we use.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a float64 uniformly distributed in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a float64 uniformly distributed in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with mean 0 and standard
// deviation 1, computed with the Box-Muller transform.
func (r *Rand) Norm() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// SkipNorms advances r exactly as n calls to Norm would, without computing
// them: a draw still retries while its first uniform is 0 (a value's top
// 53 bits are zero), but its second uniform is stepped past unread.
func (r *Rand) SkipNorms(n int) {
	for i := 0; i < n; i++ {
		for r.Uint64()>>11 == 0 {
		}
		r.state += gamma
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice of n
// ints.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly chosen element of choices. It panics if
// choices is empty.
func Choice[T any](r *Rand, choices []T) T {
	return choices[r.Intn(len(choices))]
}

// WeightedIndex returns an index in [0, len(weights)) chosen with
// probability proportional to the weight. Non-positive weights are
// treated as zero. It panics if the total weight is not positive.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: WeightedIndex requires a positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Sample returns k distinct elements drawn uniformly from items. If
// k >= len(items) a shuffled copy of all items is returned.
func Sample[T any](r *Rand, items []T, k int) []T {
	cp := make([]T, len(items))
	copy(cp, items)
	r.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}
