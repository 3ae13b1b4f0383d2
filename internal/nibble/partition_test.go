package nibble

import (
	"fmt"
	"math"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

func TestSampleStartDegreeWeighted(t *testing.T) {
	g := gen.Star(5) // hub degree 4, leaves degree 1: hub prob = 1/2
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.1)
	r := rng.New(7)
	hub := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		v, b := SampleStart(view, pr, r)
		if v == 0 {
			hub++
		}
		if b < 1 || b > pr.Ell {
			t.Fatalf("b = %d out of [1,%d]", b, pr.Ell)
		}
	}
	got := float64(hub) / trials
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("hub sampled with frequency %v, want ~0.5", got)
	}
}

func TestSampleStartScaleDistribution(t *testing.T) {
	g := gen.Complete(16)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.1)
	r := rng.New(11)
	counts := make(map[int]int)
	const trials = 40000
	for i := 0; i < trials; i++ {
		_, b := SampleStart(view, pr, r)
		counts[b]++
	}
	// Pr[b=1] ~ 1/2 of the normalized mass; at least check monotone
	// decay over the first three scales.
	if !(counts[1] > counts[2] && counts[2] > counts[3]) {
		t.Fatalf("scale counts not decaying: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("Pr[b=1]/Pr[b=2] = %v, want ~2", ratio)
	}
}

func TestParallelNibbleOverflowAborts(t *testing.T) {
	g := gen.Dumbbell(8, 1, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	pr.W = 0 // any participation overflows
	pr.KCap = 2
	res := ParallelNibble(view, pr, rng.New(3))
	if !res.Overflowed {
		t.Fatal("expected overflow with W=0")
	}
	if !res.C.Empty() {
		t.Fatal("overflow must return the empty cut")
	}
}

func TestParallelNibbleVolumeThreshold(t *testing.T) {
	g := gen.RingOfCliques(4, 6, 2)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.1)
	res := ParallelNibble(view, pr, rng.New(5))
	if res.Overflowed {
		t.Skip("overlap overflow on this seed")
	}
	if vol := float64(view.Vol(res.C)); vol > 23.0/24.0*float64(view.TotalVol()) {
		t.Fatalf("ParallelNibble volume %v exceeds (23/24)Vol", vol)
	}
}

func TestPartitionFindsDumbbellBalance(t *testing.T) {
	g := gen.Dumbbell(10, 1, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	res := Partition(view, pr, rng.New(1))
	if res.Empty() {
		t.Fatal("Partition found nothing on a dumbbell")
	}
	// Lemma 8 condition 3: either Vol(C) >= Vol/48 or C covers half the
	// planted side. Both imply decent balance here.
	if res.Balance < 1.0/48.0 {
		t.Fatalf("balance %v below 1/48", res.Balance)
	}
	// Lemma 8 condition 1.
	if vol := float64(view.Vol(res.C)); vol > 47.0/48.0*float64(view.TotalVol()) {
		t.Fatal("Partition exceeded the (47/48)Vol cap")
	}
	// Lemma 8 condition 2 with the practical constant: O(phi log n).
	bound := pr.CCut * float64(pr.W) * pr.Phi
	if res.Conductance > bound {
		t.Fatalf("Partition conductance %v above CCut*W*phi = %v", res.Conductance, bound)
	}
}

func TestPartitionEmptyOnExpander(t *testing.T) {
	g := gen.Complete(20)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.02)
	res := Partition(view, pr, rng.New(2))
	if !res.Empty() {
		t.Fatalf("Partition cut an expander: phi=%v bal=%v", res.Conductance, res.Balance)
	}
}

func TestPartitionDeterministicInSeed(t *testing.T) {
	g := gen.RingOfCliques(3, 6, 4)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	a := Partition(view, pr, rng.New(42))
	b := Partition(view, pr, rng.New(42))
	if !a.C.Equal(b.C) {
		t.Fatal("Partition not deterministic for a fixed seed")
	}
}

func TestSparseCutTheorem3Dumbbell(t *testing.T) {
	// Theorem 3 on a balanced planted cut: returned balance must be at
	// least min(b/2, 1/48) with b = 1/2, i.e. >= 1/48.
	g := gen.Dumbbell(10, 1, 1)
	view := graph.WholeGraph(g)
	phi := 1.0 / 45.0 // above bridge conductance 1/91
	res := SparseCut(view, phi, Practical, rng.New(9))
	if res.Empty() {
		t.Fatal("SparseCut found nothing")
	}
	if res.Balance < 1.0/48.0 {
		t.Fatalf("balance %v < 1/48", res.Balance)
	}
	if h := TransferH(view, phi, Practical); res.Conductance > h {
		t.Fatalf("conductance %v above TransferH = %v", res.Conductance, h)
	}
}

func TestSparseCutUnbalancedPlant(t *testing.T) {
	// Unbalanced planted cut: b = Vol(small)/Vol ~ 0.19; Theorem 3
	// demands balance >= min(b/2, 1/48).
	g := gen.UnbalancedDumbbell(12, 6, 1)
	view := graph.WholeGraph(g)
	small := graph.NewVSet(g.N())
	for v := 12; v < 18; v++ {
		small.Add(v)
	}
	b := view.Balance(small)
	phiPlant := view.Conductance(small)
	res := SparseCut(view, 2*phiPlant, Practical, rng.New(4))
	if res.Empty() {
		t.Fatal("SparseCut missed the planted unbalanced cut")
	}
	want := math.Min(b/2, 1.0/48.0)
	if res.Balance < want {
		t.Fatalf("balance %v below Theorem 3 floor %v", res.Balance, want)
	}
}

func TestSparseCutEmptyOrSparseOnExpander(t *testing.T) {
	// Theorem 3 second case: on Phi(G) > phi the result is empty or has
	// conductance <= H(phi).
	g := gen.ExpanderByMatchings(40, 6, 8)
	view := graph.WholeGraph(g)
	phi := 0.01
	res := SparseCut(view, phi, Practical, rng.New(6))
	if !res.Empty() {
		if h := TransferH(view, phi, Practical); res.Conductance > h {
			t.Fatalf("non-empty cut with conductance %v > H = %v", res.Conductance, h)
		}
	}
}

func TestPartitionProgressOnRingOfCliques(t *testing.T) {
	// Ring of cliques has sparse cuts of balance ~ 1/k each; Partition
	// should accumulate volume across iterations (Lemma 8 condition 3a).
	g := gen.RingOfCliques(6, 6, 3)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.08)
	res := Partition(view, pr, rng.New(12))
	if res.Empty() {
		t.Fatal("Partition found nothing on ring of cliques")
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// serialPartition is Partition as a literal one-iteration-at-a-time
// loop: a fresh view.Restrict(w) and one inline-serial ParallelNibble per
// iteration, with the EmptyStop and 47/48 stopping rules. Partition's
// speculative batches must reproduce it exactly.
func serialPartition(view *graph.Sub, pr Params, r *rng.RNG) *PartitionResult {
	pr.Workers = 1
	res := &PartitionResult{C: graph.NewVSet(view.Base().N())}
	s := pr.Iterations(view)
	totalVol := float64(view.TotalVol())
	w := view.Members().Clone()
	emptyStreak := 0
	for i := 1; i <= s; i++ {
		res.Iterations = i
		pn := ParallelNibble(view.Restrict(w), pr, r)
		if pn.C.Empty() {
			emptyStreak++
			if pr.EmptyStop > 0 && emptyStreak >= pr.EmptyStop {
				break
			}
			continue
		}
		emptyStreak = 0
		res.C.AddAll(pn.C)
		w.RemoveAll(pn.C)
		if float64(view.Vol(w)) <= 47.0/48.0*totalVol {
			break
		}
	}
	if !res.C.Empty() {
		res.Conductance = view.Conductance(res.C)
		res.Balance = view.Balance(res.C)
	}
	return res
}

// TestPartitionMatchesSerialLoop pins Partition's speculative iteration
// batches to the serial loop: the cut, the iteration count, the cut's
// conductance and balance, and the caller's RNG state after the call
// must all be equal for every worker count, instance cap and iteration
// cap. Under -race only seed 1 runs: the race detector needs the
// concurrent batches, not the whole matrix.
func TestPartitionMatchesSerialLoop(t *testing.T) {
	seeds := uint64(6)
	if raceEnabled {
		seeds = 1
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete24", gen.Complete(24)},
		{"dumbbell12", gen.Dumbbell(12, 1, 3)},
		{"ring8x6", gen.RingOfCliques(8, 6, 2)},
		{"ring12x5", gen.RingOfCliques(12, 5, 1)},
		{"planted6x10", gen.PlantedPartition(6, 10, 0.5, 0.02, 4)},
	}
	nonEmpty := 0
	for _, tc := range graphs {
		view := graph.WholeGraph(tc.g)
		for _, kcap := range []int{1, 3} {
			for _, scap := range []int{0, 5} {
				pr := PracticalParams(view, 0.02)
				pr.KCap = kcap
				if scap > 0 {
					pr.SCap = scap
				}
				for seed := uint64(1); seed <= seeds; seed++ {
					wr := rng.New(seed)
					want := serialPartition(view, pr, wr)
					wantNext := wr.Uint64()
					if !want.Empty() {
						nonEmpty++
					}
					for _, workers := range []int{1, 2, 3, 8} {
						pw := pr
						pw.Workers = workers
						gr := rng.New(seed)
						got := Partition(view, pw, gr)
						where := fmt.Sprintf("%s kcap=%d scap=%d seed=%d workers=%d", tc.name, kcap, scap, seed, workers)
						if !got.C.Equal(want.C) || got.Iterations != want.Iterations {
							t.Fatalf("%s: cut %v in %d iterations, serial loop %v in %d",
								where, got.C.Members(), got.Iterations, want.C.Members(), want.Iterations)
						}
						if got.Conductance != want.Conductance || got.Balance != want.Balance {
							t.Fatalf("%s: (phi, bal) = (%v, %v), serial loop (%v, %v)",
								where, got.Conductance, got.Balance, want.Conductance, want.Balance)
						}
						if next := gr.Uint64(); next != wantNext {
							t.Fatalf("%s: caller's next draw %#x, serial loop %#x", where, next, wantNext)
						}
					}
				}
			}
		}
	}
	// The rewind at a peel is only exercised by runs that find a cut.
	if nonEmpty < 3*int(seeds) {
		t.Fatalf("only %d non-empty serial runs; the peel path is barely covered", nonEmpty)
	}
	t.Logf("%d non-empty serial runs", nonEmpty)
}
