package ldd

import (
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

func TestDistBallEdgesExact(t *testing.T) {
	g := gen.Dumbbell(5, 1, 1)
	view := graph.WholeGraph(g)
	count, overflow, stats, err := distBallEdges(congest.NewTopology(view), view, 2, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds")
	}
	for v := 0; v < g.N(); v++ {
		if overflow[v] {
			t.Fatalf("vertex %d overflowed with huge tau", v)
		}
		want := view.BallEdgeCount(v, 2)
		if count[v] != want {
			t.Fatalf("vertex %d: |E(N^2)| = %d, want %d", v, count[v], want)
		}
	}
}

func TestDistBallEdgesOverflow(t *testing.T) {
	g := gen.Complete(10)
	view := graph.WholeGraph(g)
	_, overflow, _, err := distBallEdges(congest.NewTopology(view), view, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !overflow[v] {
			t.Fatalf("vertex %d did not overflow with tau=5 on K10", v)
		}
	}
}

func TestDistComponentEdges(t *testing.T) {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Graph() // triangle (3 edges), path (2 edges), isolated 6
	view := graph.WholeGraph(g)
	out, _, err := distComponentEdges(congest.NewTopology(view), view, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 2} {
		if out[v] != 3 {
			t.Fatalf("triangle vertex %d count = %d, want 3", v, out[v])
		}
	}
	for _, v := range []int{3, 4, 5} {
		if out[v] != 2 {
			t.Fatalf("path vertex %d count = %d, want 2", v, out[v])
		}
	}
	if out[6] != 0 {
		t.Fatalf("isolated vertex count = %d", out[6])
	}
}

func TestDistDecomposeTheorem4(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed Theorem 4 pipeline")
	}
	g := gen.Path(600)
	view := graph.WholeGraph(g)
	beta := 0.9
	pr := NewParams(g.N(), beta, Practical)
	res, stats, err := DistDecompose(view, pr, 29)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	// Partition validity.
	for v := 0; v < g.N(); v++ {
		if res.Labels[v] == graph.Unreachable || res.Labels[v] >= res.Count {
			t.Fatalf("vertex %d label %d invalid", v, res.Labels[v])
		}
	}
	// Diameter bound.
	bound := 2*(pr.T+1) + 20*pr.A*pr.B + 2
	if d := res.MaxDiameter(view); d > bound {
		t.Fatalf("component diameter %d above bound %d", d, bound)
	}
	// Cut fraction.
	if frac := res.CutFraction(view); frac > 3*beta {
		t.Fatalf("cut fraction %v above 3*beta", frac)
	}
	if res.Count < 2 {
		t.Fatal("long path not decomposed")
	}
}

func TestDistDecomposeDenseGraphNoCuts(t *testing.T) {
	// Everything dense: all vertices land in V_D and no edge is cut.
	g := gen.Complete(16)
	view := graph.WholeGraph(g)
	pr := NewParams(g.N(), 0.4, Practical)
	res, _, err := DistDecompose(view, pr, 31)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutEdges != 0 {
		t.Fatalf("cut %d edges on K16", res.CutEdges)
	}
	if res.Count != 1 {
		t.Fatalf("K16 split into %d parts", res.Count)
	}
}

func TestDistWMergeJoinsCloseComponents(t *testing.T) {
	// Two cliques within distance A of each other must end up in one
	// V_D component after the merge.
	g := barbellPath(12, 4)
	view := graph.WholeGraph(g)
	pr := NewParams(g.N(), 0.9, Practical)
	vdPrime, _ := DensityPartition(view, pr)
	if vdPrime.Empty() {
		t.Skip("density partition found nothing dense at this size")
	}
	vd, _, err := distWMerge(congest.NewTopology(view), view, vdPrime, pr, 41)
	if err != nil {
		t.Fatal(err)
	}
	comps := view.Restrict(vd).ComponentSets()
	if len(comps) != 1 {
		t.Fatalf("close cliques left %d V_D components, want 1", len(comps))
	}
}

func TestDistDecomposeBarbellPath(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed decomposition sweep")
	}
	// Mixed density: the cliques survive whole inside V_D; the path is
	// cut by clustering. Theorem 4's two conditions must hold.
	g := barbellPath(20, 300)
	view := graph.WholeGraph(g)
	beta := 0.9
	pr := NewParams(g.N(), beta, Practical)
	res, _, err := DistDecompose(view, pr, 43)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 2 {
		t.Fatal("barbell path not decomposed")
	}
	if frac := res.CutFraction(view); frac > 3*beta {
		t.Fatalf("cut fraction %v", frac)
	}
	// No clique edge may be cut: cliques are dense, hence in V_D.
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		bothClique := (u < 20 && v < 20) || (u >= 320 && v >= 320)
		if bothClique && res.Labels[u] != res.Labels[v] {
			t.Fatalf("clique edge (%d,%d) cut", u, v)
		}
	}
}

func TestDistDecomposeMatchesSequentialShape(t *testing.T) {
	// Distributed and sequential LDD on the same torus should both cut
	// a modest edge fraction and keep diameters bounded — shape, not
	// pointwise equality.
	g := gen.Torus(12)
	view := graph.WholeGraph(g)
	pr := NewParams(g.N(), 0.7, Practical)
	seqRes := Decompose(view, pr, rng.New(7))
	distRes, _, err := DistDecompose(view, pr, 7)
	if err != nil {
		t.Fatal(err)
	}
	seqFrac := seqRes.CutFraction(view)
	distFrac := distRes.CutFraction(view)
	if distFrac > 3*0.7 || seqFrac > 3*0.7 {
		t.Fatalf("cut fractions %v / %v above bound", seqFrac, distFrac)
	}
}

// TestDistDecomposeDeterministic runs DistDecompose twice on the same
// input and seed: the labels and every congest.Stats field must agree.
// Ball counting must also be exact: every vertex that does not report an
// overflow holds |E(N^A(v))|.
func TestDistDecomposeDeterministic(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		beta float64
	}{
		{"torus-12", gen.Torus(12), 0.3},
		{"path-400", gen.Path(400), 0.9},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		view := graph.WholeGraph(c.g)
		pr := NewParams(c.g.N(), c.beta, Practical)
		first, firstStats, err := DistDecompose(view, pr, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, againStats, err := DistDecompose(view, pr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if firstStats != againStats {
			t.Errorf("%s: stats %+v, then %+v", c.name, firstStats, againStats)
		}
		for v := range first.Labels {
			if first.Labels[v] != again.Labels[v] {
				t.Fatalf("%s: vertex %d labelled %d, then %d", c.name, v, first.Labels[v], again.Labels[v])
			}
		}
		tau := view.UsableEdgeCount()/(2*pr.B) + 1
		count, overflow, _, err := distBallEdges(congest.NewTopology(view), view, pr.A, tau, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < c.g.N(); v++ {
			if want := view.BallEdgeCount(v, pr.A); !overflow[v] && count[v] != want {
				t.Fatalf("%s: vertex %d counts %d ball edges, want %d", c.name, v, count[v], want)
			}
		}
	}
}
