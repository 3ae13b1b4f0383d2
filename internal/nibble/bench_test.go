package nibble

import (
	"fmt"
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

// cs19PhiCliques is an expander of eight 12-cliques joined by three
// random matchings and cs19's phi_0 on it at eps = 0.4, about 0.00367. No
// cut passes there, but neither certificate proves it: lambda2/2 (0.0021)
// and the flow bound (0.0034) both fall below phi_0, so the walks run.
func cs19PhiCliques() (*graph.Sub, float64) {
	view := graph.WholeGraph(gen.ExpanderOfCliques(8, 12, 3, 2))
	return view, eps04Phi0(view, view.UsableEdgeCount())
}

// BenchmarkPartitionExpanderOfCliques is the shape of every Partition
// call in a decompose workload that neither certificate skips: no cut
// exists, so all EmptyStop = 12 iterations run one T0 = 1500 walk each,
// with no fixed point, and come back empty. Those iterations are the ones
// Partition runs speculatively in parallel, so this benchmark scales with
// -cpu.
func BenchmarkPartitionExpanderOfCliques(b *testing.B) {
	view, phi := cs19PhiCliques()
	pr := PracticalParams(view, phi)
	if noSweepPasses(view, pr, pr.acceptTau(view)) {
		b.Fatal("a certificate fires: Partition would run no walk")
	}
	res, err := PartitionWalk(view, pr, rng.New(1), func(sub *graph.Sub, pr Params, v, bb int) (*Result, error) {
		if t := fixedPointStep(sub, pr, v, bb); t != 0 {
			return nil, fmt.Errorf("the walk from (%d, %d) reaches a fixed point at step %d", v, bb, t)
		}
		return ApproximateNibble(sub, pr, v, bb), nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if k := pr.InstanceCount(view); k != 1 || pr.T0 != 1500 || !res.Empty() || res.Iterations != pr.EmptyStop {
		b.Fatalf("want %d empty iterations of k = 1 walk at T0 = 1500, got %d iterations of k = %d at T0 = %d (cut %v)",
			pr.EmptyStop, res.Iterations, k, pr.T0, res.C.Members())
	}
	for b.Loop() {
		Partition(view, pr, rng.New(1))
	}
}

// BenchmarkDetSparseCut runs det's probe schedule on the same view and
// phi: no certificate fires, every probe of the one iteration comes back
// empty, and the probes run on GOMAXPROCS goroutines.
func BenchmarkDetSparseCut(b *testing.B) {
	view, phi := cs19PhiCliques()
	if noSweepPasses(view, PracticalParams(view, phi), phi) {
		b.Fatal("a certificate fires: det would run no probe")
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
