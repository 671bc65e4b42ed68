package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		n := 1 + i%100
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestSkipNormsMatchesNorm(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 63} {
		for _, n := range []int{0, 1, 2, 24, 1000} {
			a, b := New(seed), New(seed)
			for i := 0; i < n; i++ {
				a.Norm()
			}
			b.SkipNorms(n)
			if a.state != b.state {
				t.Fatalf("seed %d: SkipNorms(%d) left state %#x, %d Norms %#x", seed, n, b.state, n, a.state)
			}
		}
	}
}

// unmix inverts SplitMix64's output function: the state whose draw
// Uint64 returns z.
func unmix(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= mulInverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= mulInverse(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// unxorshift inverts y = x ^ (x >> s).
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ (x >> s)
	}
	return x
}

// mulInverse returns the inverse of an odd c modulo 2^64 by Newton's
// iteration, which doubles the correct low bits each step.
func mulInverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

func TestUnmixInvertsUint64(t *testing.T) {
	for _, z := range []uint64{0, 1, 1 << 11, math.MaxUint64, 0x0123456789abcdef} {
		r := Rand{state: unmix(z) - gamma}
		if got := r.Uint64(); got != z {
			t.Fatalf("unmix(%#x) gave a state whose draw is %#x", z, got)
		}
	}
}

// TestSkipNormsRetryPath forces Norm's u1 == 0 retry, which no natural
// seed reaches (it has probability 2^-53 per draw): the generator is
// placed so that the first uniform of draw k is 0.
func TestSkipNormsRetryPath(t *testing.T) {
	n := 9
	for _, k := range []int{0, n / 2, n - 1} {
		for _, low := range []uint64{0, 1<<11 - 1} {
			// Draw k's first uniform is the (2k+1)th value from start.
			start := unmix(low) - uint64(2*k+1)*gamma
			a, b := Rand{state: start}, Rand{state: start}
			for i := 0; i < n; i++ {
				if v := a.Norm(); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("draw %d = %v", i, v)
				}
			}
			if want := start + uint64(2*n+1)*gamma; a.state != want {
				t.Fatalf("k=%d low=%#x: %d Norms did not consume %d values (retry not taken)", k, low, n, 2*n+1)
			}
			b.SkipNorms(n)
			if a.state != b.state {
				t.Fatalf("k=%d low=%#x: SkipNorms(%d) left state %#x, %d Norms %#x", k, low, n, b.state, n, a.state)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedIndexRespectsZeroWeights(t *testing.T) {
	r := New(17)
	w := []float64{0, 3, 0, 1}
	counts := make([]int, len(w))
	for i := 0; i < 40000; i++ {
		counts[r.WeightedIndex(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight indices chosen: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio %v too far from 3", ratio)
	}
}

func TestWeightedIndexPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).WeightedIndex([]float64{0, 0})
}

func TestChoice(t *testing.T) {
	r := New(31)
	choices := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Choice(r, choices)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Choice never returned some elements: %v", seen)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(37)
	v := []int{1, 2, 2, 3, 3, 3}
	sum := 0
	for _, x := range v {
		sum += x
	}
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	sum2 := 0
	for _, x := range v {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", v)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(41)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) observed probability %v", p)
	}
}

func TestJumpMatchesDraws(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 63, math.MaxUint64} {
		for _, n := range []uint64{0, 1, 2, 1000} {
			a, b := New(seed), New(seed)
			for i := uint64(0); i < n; i++ {
				a.Uint64()
			}
			b.Jump(n)
			if a.state != b.state || a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d: Jump(%d) left state %#x, %d draws %#x", seed, n, b.state, n, a.state)
			}
		}
	}
}
