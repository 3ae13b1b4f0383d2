package triangle

import (
	"testing"
	"testing/quick"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// randomGraph builds a random connected-ish graph from a seed.
func randomGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := 8 + r.Intn(16)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(r.Intn(v), v) // random spanning tree
	}
	extra := n + r.Intn(3*n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

func TestEnumeratePropertyMatchesBrute(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, _, err := Enumerate(view, Options{Seed: seed})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueDLPPropertyMatchesBrute(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, _, err := CliqueDLP(view, seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNaivePropertyMatchesBrute(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, _, err := Naive(view, seed)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateWithParallelEdgesAndLoops(t *testing.T) {
	// Parallel edges and self-loops must not confuse any algorithm.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 3) // loop
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Graph()
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	if want.Len() != 1 {
		t.Fatalf("brute = %d, want 1 (triangle {0,1,2})", want.Len())
	}
	got, _, err := Enumerate(view, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("enumerate with multi-edges: %d vs %d", got.Len(), want.Len())
	}
	naive, _, err := Naive(view, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(want) {
		t.Fatalf("naive with multi-edges: %d", naive.Len())
	}
}

func TestEnumerateDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles plus isolated vertices.
	b := graph.NewBuilder(9)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(4, 6)
	g := b.Graph()
	view := graph.WholeGraph(g)
	got, _, err := Enumerate(view, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("disconnected: found %d, want 2", got.Len())
	}
}

func TestEnumerateStarNoTriangles(t *testing.T) {
	g := gen.Star(20)
	got, stats, err := Enumerate(graph.WholeGraph(g), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("star has %d triangles?", got.Len())
	}
	if stats.Recursions < 1 {
		t.Fatal("no work recorded")
	}
}
