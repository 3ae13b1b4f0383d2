package nibble

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
	"dexpander/internal/spectral"
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

// TestPartitionWalkStopsAtFailure runs the loop on an expander, where
// every iteration is empty and the loop keeps going, with a walk whose
// third call fails: PartitionWalk must return that error and, with one
// worker, never call the walk again. With several workers the
// speculative batch may already have handed out later walks, but the
// error still ends the loop.
func TestPartitionWalkStopsAtFailure(t *testing.T) {
	view := graph.WholeGraph(gen.Complete(24))
	errWalk := errors.New("walk failed")
	for _, workers := range []int{1, 4} {
		pr := PracticalParams(view, 0.02)
		pr.KCap = 1
		pr.SCap = 8
		pr.EmptyStop = 0
		pr.Workers = workers
		var calls atomic.Int32
		res, err := PartitionWalk(view, pr, rng.New(1), func(sub *graph.Sub, pr Params, v, b int) (*Result, error) {
			if calls.Add(1) == 3 {
				return nil, errWalk
			}
			return ApproximateNibble(sub, pr, v, b), nil
		})
		if !errors.Is(err, errWalk) || res != nil {
			t.Fatalf("workers=%d: got (%v, %v), want the walk's error", workers, res, err)
		}
		if n := calls.Load(); workers == 1 && n != 3 {
			t.Fatalf("walk called %d times, want 3: a failure must end the loop", n)
		}
	}
}

// eps04Phi0 is phi_0 of a Practical decomposition at eps 0.4 whose view
// has m usable edges: h(phi_0) = eps / (6 log2 m).
func eps04Phi0(view *graph.Sub, m int) float64 {
	return TransferHInv(view, 0.4/(6*max(1, math.Log2(float64(m)))), Practical)
}

// TestCertifiedSkipMatchesWalks pins the certificate skip to the walks it
// skips. On each view a certificate must fire at the view's phi_0, and
// there Partition, which runs no walk, must equal the walking serial loop
// in the cut, the iteration count, (phi, bal) and the caller's next draw
// at 1 and 3 workers; det's first probe round must come back empty, as
// DetSparseCut's skip (empty, one iteration) assumes. The whole rings of
// cliques are closed only by the flow certificate, since their lambda2/2
// falls below phi_0. On two views whose walks return a cut at phi_0 no
// certificate may fire. Under -race only seed 1 runs, and the grid and the
// whole rings, whose walks run all T0 steps, only check the certificate:
// their walking references take about 7 s for the grid and 30 s for the
// two rings there.
func TestCertifiedSkipMatchesWalks(t *testing.T) {
	seeds := uint64(3)
	if raceEnabled {
		seeds = 1
	}
	ring := gen.RingOfCliques(8, 12, 1)
	clique := graph.NewVSet(ring.N())
	for v := range 12 {
		clique.Add(v)
	}
	fire := []struct {
		name string
		view *graph.Sub
		m    int  // usable edges of the decomposition's view
		flow bool // only the flow certificate fires
		long bool // the walks run all T0 steps
	}{
		{"complete24", graph.WholeGraph(gen.Complete(24)), 0, false, false},
		{"gnp96", graph.WholeGraph(gen.GNP(96, 0.1, 1)), 0, false, false},
		{"grid12x12", graph.WholeGraph(gen.Grid(12, 12)), 0, false, true},
		{"ring8x12/clique0", graph.NewSub(ring, clique, nil), graph.WholeGraph(ring).UsableEdgeCount(), false, false},
		{"ring8x8", graph.WholeGraph(gen.RingOfCliques(8, 8, 1)), 0, true, true},
		{"ring8x12", graph.WholeGraph(ring), 0, true, true},
	}
	for _, tc := range fire {
		m := tc.m
		if m == 0 {
			m = tc.view.UsableEdgeCount()
		}
		phi := eps04Phi0(tc.view, m)
		pr := PracticalParams(tc.view, phi)
		if !noSweepPasses(tc.view, pr, pr.acceptTau(tc.view)) || !noSweepPasses(tc.view, pr, pr.Phi) {
			t.Fatalf("%s: certificate does not fire at phi_0 = %v", tc.name, phi)
		}
		if tc.flow && spectral.Lambda2Above(tc.view, 2*pr.acceptTau(tc.view)) {
			t.Fatalf("%s: the lambda2 certificate fires; the view no longer pins the flow certificate", tc.name)
		}
		if raceEnabled && tc.long {
			continue
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			wr := rng.New(seed)
			want := serialPartition(tc.view, pr, wr)
			wantNext := wr.Uint64()
			for _, workers := range []int{1, 3} {
				pw := pr
				pw.Workers = workers
				gr := rng.New(seed)
				got := Partition(tc.view, pw, gr)
				where := fmt.Sprintf("%s seed=%d workers=%d", tc.name, seed, workers)
				if !got.C.Equal(want.C) || got.Iterations != want.Iterations ||
					got.Conductance != want.Conductance || got.Balance != want.Balance {
					t.Fatalf("%s: %v in %d iterations (phi %v, bal %v), walks %v in %d (phi %v, bal %v)",
						where, got.C.Members(), got.Iterations, got.Conductance, got.Balance,
						want.C.Members(), want.Iterations, want.Conductance, want.Balance)
				}
				if next := gr.Uint64(); next != wantNext {
					t.Fatalf("%s: caller's next draw %#x, walks %#x", where, next, wantNext)
				}
			}
		}
		if best := detNibble(tc.view, pr); best != nil {
			t.Fatalf("%s: det's probes found %v where the certificate holds", tc.name, best.Members())
		}
		if res := DetSparseCut(tc.view, phi, Practical); !res.Empty() || res.Iterations != 1 {
			t.Fatalf("%s: DetSparseCut gave %v in %d iterations, want empty in 1", tc.name, res.C.Members(), res.Iterations)
		}
	}
	for _, g := range []*graph.Graph{gen.Dumbbell(24, 1, 1), gen.BarbellPath(24, 2)} {
		view := graph.WholeGraph(g)
		pr := PracticalParams(view, eps04Phi0(view, view.UsableEdgeCount()))
		if res := serialPartition(view, pr, rng.New(1)); res.Empty() {
			t.Fatalf("%s: the walks return no cut at phi_0 = %v", gen.Describe(g), pr.Phi)
		}
		if noSweepPasses(view, pr, pr.acceptTau(view)) || noSweepPasses(view, pr, pr.Phi) {
			t.Fatalf("%s: certificate fires at phi_0 = %v", gen.Describe(g), pr.Phi)
		}
	}
}
