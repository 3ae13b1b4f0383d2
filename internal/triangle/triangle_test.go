package triangle

import (
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

func TestMakeTriangleSorts(t *testing.T) {
	tr := MakeTriangle(5, 1, 3)
	if tr.A != 1 || tr.B != 3 || tr.C != 5 {
		t.Fatalf("MakeTriangle = %+v", tr)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	s.Add(MakeTriangle(1, 2, 3))
	s.Add(MakeTriangle(3, 2, 1)) // duplicate
	s.Add(MakeTriangle(2, 3, 4))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Has(Triangle{1, 2, 3}) {
		t.Fatal("missing member")
	}
	sorted := s.Sorted()
	if sorted[0] != (Triangle{1, 2, 3}) || sorted[1] != (Triangle{2, 3, 4}) {
		t.Fatalf("Sorted = %v", sorted)
	}
	o := NewSet()
	o.Add(Triangle{1, 2, 3})
	if s.Equal(o) {
		t.Fatal("unequal sets compare equal")
	}
	o.Add(Triangle{2, 3, 4})
	if !s.Equal(o) {
		t.Fatal("equal sets compare unequal")
	}
}

// TestSetWideVertexIDs: triangles that differ only above bit 20 of a
// vertex id stay distinct. Packed into 21-bit fields, {0,1,3} and
// {0,1,2^21+3} share a key, so a Set keyed only that way holds one of
// them and SetKernel and BruteForce disagree with CountParallel2D.
func TestSetWideVertexIDs(t *testing.T) {
	const far = 1<<21 + 3
	b := graph.NewBuilder(far + 1)
	for _, e := range [][2]int{{0, 1}, {1, far}, {0, far}, {1, 3}, {0, 3}} {
		b.AddEdge(e[0], e[1])
	}
	view := graph.WholeGraph(b.Graph())
	want := CountParallel2D(view, 2)
	if want != 2 {
		t.Fatalf("CountParallel2D = %d, want 2", want)
	}
	near, wide := Triangle{0, 1, 3}, Triangle{0, 1, far}
	s := NewSet()
	s.Add(near)
	s.Add(wide)
	s.Add(wide)
	sets := map[string]*Set{"Set": s, "SetKernel": SetKernel(view, 2, KernelRank), "BruteForce": BruteForce(view)}
	for name, got := range sets {
		if got.Len() != want || !got.Has(near) || !got.Has(wide) {
			t.Errorf("%s: Len = %d, Has(near) = %v, Has(wide) = %v; want %d, true, true",
				name, got.Len(), got.Has(near), got.Has(wide), want)
		}
		if !got.Equal(s) || got.Checksum() != s.Checksum() {
			t.Errorf("%s: differs from the directly built set", name)
		}
	}
	if sorted := s.Sorted(); len(sorted) != 2 || sorted[0] != near || sorted[1] != wide {
		t.Fatalf("Sorted = %v", sorted)
	}
	merged, only := NewSet(), NewSet()
	only.Add(near)
	merged.Merge(only)
	if merged.Equal(s) || merged.Checksum() == s.Checksum() {
		t.Fatal("set without the wide triangle matches the set with it")
	}
	merged.Merge(s)
	if !merged.Equal(s) || merged.Checksum() != s.Checksum() {
		t.Fatal("Merge lost the wide triangle")
	}
}

func TestBruteForceKnownCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K4", gen.Complete(4), 4},
		{"K5", gen.Complete(5), 10},
		{"C5", gen.Cycle(5), 0},
		{"path", gen.Path(6), 0},
		{"K3", gen.Complete(3), 1},
	}
	for _, tc := range cases {
		if got := Count(graph.WholeGraph(tc.g)); got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBruteForceRespectsMask(t *testing.T) {
	g := gen.Complete(4) // edges: 01,02,03,12,13,23
	mask := make([]bool, g.M())
	for e := range mask {
		mask[e] = true
	}
	mask[0] = false // kill 0-1
	got := BruteForce(graph.NewSub(g, nil, mask))
	// Triangles not using edge 0-1: {0,2,3} and {1,2,3}.
	if got.Len() != 2 {
		t.Fatalf("masked count = %d, want 2", got.Len())
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"K8":       gen.Complete(8),
		"gnp30":    gen.GNP(30, 0.4, 5),
		"gnp24d":   gen.GNP(24, 0.7, 6),
		"ring":     gen.RingOfCliques(3, 5, 7),
		"dumbbell": gen.Dumbbell(8, 2, 8),
		"sparse":   gen.GNPConnected(40, 0.08, 9),
		"bipartiteish": gen.PlantedPartition(2, 12, 0.15, 0.5,
			10),
	}
}

func TestNaiveMatchesBruteForce(t *testing.T) {
	for name, g := range testGraphs() {
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, stats, err := Naive(view, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: naive found %d, want %d", name, got.Len(), want.Len())
		}
		if maxd := g.MaxDeg(); stats.Rounds != maxd {
			t.Errorf("%s: naive rounds = %d, want maxdeg %d", name, stats.Rounds, maxd)
		}
	}
}

func TestCliqueDLPMatchesBruteForce(t *testing.T) {
	for name, g := range testGraphs() {
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, stats, err := CliqueDLP(view, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: DLP found %d, want %d", name, got.Len(), want.Len())
		}
		if want.Len() > 0 && stats.Rounds == 0 {
			t.Errorf("%s: no rounds recorded", name)
		}
	}
}

func TestCliqueDLPTinyGraphs(t *testing.T) {
	// n = 9 puts C(g+2,3) = 10 > n, exercising the round-robin handler
	// wrap.
	g := gen.Complete(9)
	got, _, err := CliqueDLP(graph.WholeGraph(g), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(graph.WholeGraph(g))
	if !got.Equal(want) {
		t.Fatalf("K9: DLP found %d, want %d", got.Len(), want.Len())
	}
	// Degenerate sizes.
	for _, n := range []int{1, 2} {
		s, _, err := CliqueDLP(graph.WholeGraph(gen.Complete(n)), 1)
		if err != nil || s.Len() != 0 {
			t.Fatalf("K%d: %v, len %d", n, err, s.Len())
		}
	}
}

func TestCliqueWithGroupsAnyG(t *testing.T) {
	// Correctness is group-count independent.
	g := gen.GNP(20, 0.4, 3)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	for _, groups := range []int{1, 2, 3, 5, 20, 100} {
		got, _, err := CliqueWithGroups(view, groups, 5)
		if err != nil {
			t.Fatalf("g=%d: %v", groups, err)
		}
		if !got.Equal(want) {
			t.Fatalf("g=%d: found %d, want %d", groups, got.Len(), want.Len())
		}
	}
}

func TestCliqueDLPSparseRegimeFast(t *testing.T) {
	// Section 4's sparse regime: with m = O(n^{5/3}) the all-to-all
	// bandwidth dwarfs the m*g/n per-vertex traffic and DLP runs in a
	// handful of rounds.
	g := gen.GNPConnected(96, 0.03, 7)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	got, stats, err := CliqueDLP(view, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("found %d, want %d", got.Len(), want.Len())
	}
	if stats.Rounds > 10 {
		t.Fatalf("sparse clique took %d rounds, want O(1)", stats.Rounds)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	for name, g := range testGraphs() {
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		got, stats, err := Enumerate(view, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: enumerate found %d, want %d", name, got.Len(), want.Len())
		}
		if stats.Recursions < 1 {
			t.Errorf("%s: no recursion recorded", name)
		}
	}
}

func TestEnumerateOnDecomposableGraph(t *testing.T) {
	// A graph the decomposition actually splits: triangles crossing the
	// bridge exercise the E* recursion.
	b := graph.NewBuilder(48)
	// Two K24s.
	for i := 0; i < 24; i++ {
		for j := i + 1; j < 24; j++ {
			b.AddEdge(i, j)
			b.AddEdge(24+i, 24+j)
		}
	}
	// A bridge triangle spanning both sides: (0, 24) plus shared apex 1.
	b.AddEdge(0, 24)
	b.AddEdge(1, 24)
	g := b.Graph()
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	got, stats, err := Enumerate(view, Options{Seed: 5, Eps: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("found %d, want %d", got.Len(), want.Len())
	}
	// The cross triangle {0,1,24} must be present.
	if !got.Has(Triangle{0, 1, 24}) {
		t.Fatal("missed the bridge triangle")
	}
	if stats.Components < 1 || stats.Rounds == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEnumerateEmptyAndTiny(t *testing.T) {
	empty := graph.NewBuilder(5).Graph()
	got, _, err := Enumerate(graph.WholeGraph(empty), Options{Seed: 1})
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty graph: %v, %d triangles", err, got.Len())
	}
	tri := gen.Complete(3)
	got, _, err = Enumerate(graph.WholeGraph(tri), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("K3: found %d", got.Len())
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	g := gen.GNP(26, 0.5, 11)
	view := graph.WholeGraph(g)
	a, sa, err := Enumerate(view, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Enumerate(view, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || sa.Rounds != sb.Rounds {
		t.Fatal("enumeration not deterministic in seed")
	}
}

func TestDetect(t *testing.T) {
	free := gen.Cycle(12) // triangle-free
	got, _, err := Detect(graph.WholeGraph(free), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("detected a triangle in a cycle")
	}
	has := gen.Complete(5)
	got, _, err = Detect(graph.WholeGraph(has), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("missed triangles in K5")
	}
}

func TestCountDistributedAndLocalCounts(t *testing.T) {
	g := gen.Complete(5)
	view := graph.WholeGraph(g)
	cnt, _, err := CountDistributed(view, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 10 {
		t.Fatalf("count = %d, want 10", cnt)
	}
	// In K5 every vertex lies in C(4,2) = 6 triangles.
	set := BruteForce(view)
	for v, c := range LocalCounts(5, set) {
		if c != 6 {
			t.Fatalf("local count of %d = %d, want 6", v, c)
		}
	}
}

func TestVerifyAgainstBrute(t *testing.T) {
	g := gen.Complete(4)
	view := graph.WholeGraph(g)
	got := BruteForce(view)
	if m, e := VerifyAgainstBrute(view, got); m != 0 || e != 0 {
		t.Fatalf("self-comparison: missing=%d extra=%d", m, e)
	}
	// Remove one and add a bogus one.
	partial := NewSet()
	for i, tr := range got.Sorted() {
		if i > 0 {
			partial.Add(tr)
		}
	}
	partial.Add(Triangle{A: 90, B: 91, C: 92})
	if m, e := VerifyAgainstBrute(view, partial); m != 1 || e != 1 {
		t.Fatalf("missing=%d extra=%d, want 1,1", m, e)
	}
}

func TestNaiveDetect(t *testing.T) {
	got, _, err := NaiveDetect(graph.WholeGraph(gen.Cycle(8)), 1)
	if err != nil || got {
		t.Fatalf("NaiveDetect on cycle: %v %v", got, err)
	}
	got, _, err = NaiveDetect(graph.WholeGraph(gen.Complete(4)), 1)
	if err != nil || !got {
		t.Fatalf("NaiveDetect on K4: %v %v", got, err)
	}
}

func TestEnumerateGnpHalf(t *testing.T) {
	// The lower-bound family: G(n, 1/2).
	g := gen.GNP(36, 0.5, 13)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	got, _, err := Enumerate(view, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("G(36,1/2): found %d, want %d", got.Len(), want.Len())
	}
}
