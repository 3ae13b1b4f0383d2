package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	root := New(7)
	a := root.Fork(0)
	b := root.Fork(1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams with distinct ids collided on first output")
	}
	// Forking must not advance the parent.
	before := *root
	root.Fork(99)
	if *root != before {
		t.Fatal("Fork advanced parent state")
	}
}

func TestForkDeterminism(t *testing.T) {
	a := New(5).Fork(3)
	b := New(5).Fork(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("forked streams with same id diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(19)
	const beta = 0.5
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += r.Exponential(beta)
	}
	mean := sum / trials
	want := 1 / beta
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("exponential mean = %v, want ~%v", mean, want)
	}
}

func TestExponentialNonNegative(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.Exponential(2); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exponential produced invalid value %v", v)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(37)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestWeightedIndex(t *testing.T) {
	r := New(41)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 60000
	for i := 0; i < trials; i++ {
		counts[r.WeightedIndex(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		seen := make(map[int]bool)
		for _, v := range s {
			seen[v] = true
		}
		return len(seen) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exponential(0.5)
	}
}
