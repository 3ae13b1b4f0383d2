package nibble

import (
	"math"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

func BenchmarkApproximateNibble(b *testing.B) {
	g := gen.Dumbbell(12, 1, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproximateNibble(view, pr, 0, 5)
	}
}

func BenchmarkApproximateNibbleExpander(b *testing.B) {
	// The walk never finds a cut; it reaches a bitwise fixed point at
	// step 57 of T0 = 610 and stops there.
	g := gen.Complete(24)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproximateNibble(view, pr, 0, 3)
	}
}

// BenchmarkApproximateNibbleRingOfCliques is the slow-mixing case: the
// walk finds no cut and reaches no fixed point within T0 = 1500, so it
// pays for every step and sweep. At phi 0.01 every j-sequence index is
// dense and held to (C.1); at phi 0.1 the same walk returns a cut at
// step 1.
func BenchmarkApproximateNibbleRingOfCliques(b *testing.B) {
	g := gen.RingOfCliques(4, 8, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.01)
	if !ApproximateNibble(view, pr, 0, 4).Empty() || fixedPointStep(view, pr, 0, 4) != 0 {
		b.Fatal("the walk must run all T0 steps without a cut or a fixed point")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproximateNibble(view, pr, 0, 4)
	}
}

func BenchmarkPartitionDumbbell(b *testing.B) {
	g := gen.Dumbbell(12, 1, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(view, pr, rng.New(uint64(i)))
	}
}

// cs19PhiRing is a ring of eight 8-cliques and cs19's phi_0 on it at
// eps = 0.4: h(phi_0) = eps / (6 log2 m), about 0.00424. Its lambda2/2
// (0.0041) falls just below phi_0, so Partition's certificate does not
// fire and the walks run, although no cut passes.
func cs19PhiRing() (*graph.Sub, float64) {
	view := graph.WholeGraph(gen.RingOfCliques(8, 8, 1))
	logM := math.Log2(float64(view.UsableEdgeCount()))
	return view, TransferHInv(view, 0.4/(6*logM), Practical)
}

// BenchmarkPartitionRing is the shape of every Partition call in a
// decompose workload that the lambda2 certificate does not skip: no cut
// exists, so all EmptyStop = 12 iterations run one T0 = 1500 walk each
// and come back empty. Those iterations are the ones Partition runs
// speculatively in parallel, so this benchmark scales with -cpu.
func BenchmarkPartitionRing(b *testing.B) {
	view, phi := cs19PhiRing()
	pr := PracticalParams(view, phi)
	res := Partition(view, pr, rng.New(1))
	if k := pr.InstanceCount(view); k != 1 || pr.T0 != 1500 || !res.Empty() || res.Iterations != pr.EmptyStop ||
		noSweepPasses(view, pr, pr.acceptTau(view)) {
		b.Fatalf("want %d empty iterations of k = 1 walk at T0 = 1500 and no certificate, got %d iterations of k = %d at T0 = %d (cut %v)",
			pr.EmptyStop, res.Iterations, k, pr.T0, res.C.Members())
	}
	for b.Loop() {
		Partition(view, pr, rng.New(1))
	}
}

// BenchmarkDetSparseCut runs det's probe schedule on the same view and
// phi: the certificate does not fire, every probe of the one iteration
// comes back empty, and the probes run on GOMAXPROCS goroutines.
func BenchmarkDetSparseCut(b *testing.B) {
	view, phi := cs19PhiRing()
	if noSweepPasses(view, PracticalParams(view, phi), phi) {
		b.Fatal("the certificate fires: det would run no probe")
	}
	for b.Loop() {
		DetSparseCut(view, phi, Practical)
	}
}

func BenchmarkSparseCutTheorem3(b *testing.B) {
	g := gen.UnbalancedDumbbell(20, 8, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparseCut(view, 0.03, Practical, rng.New(uint64(i)))
	}
}
