package nibble

import (
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

func BenchmarkSparseCutTheorem3(b *testing.B) {
	g := gen.UnbalancedDumbbell(20, 8, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparseCut(view, 0.03, Practical, rng.New(uint64(i)))
	}
}
