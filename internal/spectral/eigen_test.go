package spectral

import (
	"math"
	"slices"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

func TestNormalizedSpectrumCompleteGraph(t *testing.T) {
	// K_n: eigenvalues 0 and n/(n-1) with multiplicity n-1.
	n := 8
	eig := NormalizedSpectrum(graph.WholeGraph(gen.Complete(n)), 50)
	if len(eig) != n {
		t.Fatalf("spectrum size %d", len(eig))
	}
	if math.Abs(eig[0]) > 1e-9 {
		t.Fatalf("smallest eigenvalue %v, want 0", eig[0])
	}
	want := float64(n) / float64(n-1)
	for _, l := range eig[1:] {
		if math.Abs(l-want) > 1e-9 {
			t.Fatalf("eigenvalue %v, want %v", l, want)
		}
	}
}

func TestNormalizedSpectrumCycle(t *testing.T) {
	// C_n: eigenvalues 1 - cos(2 pi k / n).
	n := 10
	eig := NormalizedSpectrum(graph.WholeGraph(gen.Cycle(n)), 50)
	want := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, 1-math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	slices.Sort(want)
	for i := range eig {
		if math.Abs(eig[i]-want[i]) > 1e-9 {
			t.Fatalf("eig[%d] = %v, want %v", i, eig[i], want[i])
		}
	}
}

func TestNormalizedSpectrumTraceInvariant(t *testing.T) {
	// trace(L) = sum over members of 1 - loops/deg; with no loops and
	// positive degrees it is exactly n.
	g := gen.GNPConnected(14, 0.3, 5)
	eig := NormalizedSpectrum(graph.WholeGraph(g), 50)
	var tr float64
	for _, l := range eig {
		tr += l
	}
	if math.Abs(tr-float64(g.N())) > 1e-8 {
		t.Fatalf("trace = %v, want %d", tr, g.N())
	}
}

func TestLambda2ExactMatchesPowerIteration(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"dumbbell", gen.Dumbbell(5, 1, 1)},
		{"ring", gen.RingOfCliques(3, 4, 2)},
		{"path", gen.Path(9)},
		{"hypercube", gen.Hypercube(3)},
	} {
		view := graph.WholeGraph(tc.g)
		exact := Lambda2Exact(view, 50)
		power := Lambda2(view, 4000, 7)
		if exact < 0 {
			t.Fatalf("%s: no exact spectrum", tc.name)
		}
		if math.Abs(exact-power) > 0.01*math.Max(exact, 0.01) {
			t.Errorf("%s: exact %v vs power %v", tc.name, exact, power)
		}
	}
}

func TestLambda2ExactRespectsLoops(t *testing.T) {
	// Removing an edge (implicit loops) must lower lambda2: the masked
	// dumbbell bridge disconnects the graph, so lambda2 -> 0.
	g := gen.Dumbbell(4, 1, 1)
	view := graph.WholeGraph(g)
	bridge := -1
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if u < 4 && v >= 4 {
			bridge = e
		}
	}
	mask := make([]bool, g.M())
	for i := range mask {
		mask[i] = i != bridge
	}
	cut := NormalizedSpectrum(graph.NewSub(g, nil, mask), 50)
	if cut[1] > 1e-9 {
		t.Fatalf("disconnected lambda2 = %v, want 0", cut[1])
	}
	whole := NormalizedSpectrum(view, 50)
	if whole[1] <= 1e-9 {
		t.Fatal("connected dumbbell lambda2 should be positive")
	}
}

func TestNormalizedSpectrumSizeCap(t *testing.T) {
	if eig := NormalizedSpectrum(graph.WholeGraph(gen.Complete(30)), 10); eig != nil {
		t.Fatal("size cap ignored")
	}
	if l := Lambda2Exact(graph.WholeGraph(gen.Complete(30)), 10); l != -1 {
		t.Fatalf("Lambda2Exact over cap = %v", l)
	}
}
