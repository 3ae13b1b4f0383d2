package graph

import (
	"math"
	"testing"
	"testing/quick"

	"dexpander/internal/rng"
)

// dumbbell returns two K4s joined by a single bridge edge 3-4, and the
// bridge's left side as a set.
func dumbbell() (*Graph, *VSet) {
	b := NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(i+4, j+4)
		}
	}
	b.AddEdge(3, 4)
	return b.Graph(), VSetOf(8, 0, 1, 2, 3)
}

func TestConductanceDumbbell(t *testing.T) {
	g, left := dumbbell()
	s := WholeGraph(g)
	// Vol(left) = 3+3+3+4 = 13, cut = 1.
	if got := s.CutEdges(left); got != 1 {
		t.Fatalf("CutEdges = %d, want 1", got)
	}
	want := 1.0 / 13.0
	if got := s.Conductance(left); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Conductance = %v, want %v", got, want)
	}
	if got := s.Balance(left); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Balance = %v, want 0.5", got)
	}
}

func TestConductanceComplementSymmetry(t *testing.T) {
	g, left := dumbbell()
	s := WholeGraph(g)
	right := FullVSet(8).Minus(left)
	if a, b := s.Conductance(left), s.Conductance(right); math.Abs(a-b) > 1e-12 {
		t.Fatalf("Phi(S)=%v != Phi(S̄)=%v", a, b)
	}
}

func TestConductanceEmptyAndFull(t *testing.T) {
	g, _ := dumbbell()
	s := WholeGraph(g)
	if got := s.Conductance(NewVSet(8)); got != 0 {
		t.Fatalf("Phi(empty) = %v, want 0", got)
	}
	if got := s.Conductance(FullVSet(8)); got != 0 {
		t.Fatalf("Phi(V) = %v, want 0", got)
	}
}

func TestSubRestrictLoopsAccounting(t *testing.T) {
	g, left := dumbbell()
	view := WholeGraph(g).Restrict(left)
	// Vertex 3 had degree 4 (three K4 edges + bridge); the bridge leaves
	// the member set, so it becomes one implicit loop.
	if got := view.AliveDeg(3); got != 3 {
		t.Fatalf("AliveDeg(3) = %d, want 3", got)
	}
	if got := view.Loops(3); got != 1 {
		t.Fatalf("Loops(3) = %d, want 1", got)
	}
	if got := view.Deg(3); got != 4 {
		t.Fatalf("Deg(3) = %d, want 4 (degrees never change)", got)
	}
}

// edgeMask returns the mask keeping exactly the edges of g for which
// keep(u, v) holds.
func edgeMask(g *Graph, keep func(u, v int) bool) []bool {
	mask := make([]bool, g.M())
	for e := range mask {
		u, v := g.EdgeEndpoints(e)
		mask[e] = keep(u, v)
	}
	return mask
}

// TestRemoveCutAddsImplicitLoops: masking out the edges that cross a cut
// (the paper's Remove-1/2) turns each into an implicit loop at both
// endpoints, because degrees are never recomputed.
func TestRemoveCutAddsImplicitLoops(t *testing.T) {
	g, left := dumbbell()
	view := WholeGraph(g)
	after := NewSub(g, nil, edgeMask(g, func(u, v int) bool { return left.Has(u) == left.Has(v) }))
	if got := after.CutEdges(left); got != 0 {
		t.Fatalf("cut edges after removal = %d", got)
	}
	if got := after.Loops(3); got != 1 {
		t.Fatalf("Loops(3) after removal = %d, want 1", got)
	}
	if got := after.Loops(4); got != 1 {
		t.Fatalf("Loops(4) after removal = %d, want 1", got)
	}
	// Total volume is preserved by removal.
	if after.TotalVol() != view.TotalVol() {
		t.Fatal("volume changed by edge removal")
	}
}

// TestRemoveIncidentIsolates: masking out every edge incident to a set
// (the paper's Remove-3) leaves each of its vertices an isolated
// loop-vertex.
func TestRemoveIncidentIsolates(t *testing.T) {
	g, _ := dumbbell()
	c := VSetOf(8, 0)
	after := NewSub(g, nil, edgeMask(g, func(u, v int) bool { return !c.Has(u) && !c.Has(v) }))
	if got := after.AliveDeg(0); got != 0 {
		t.Fatalf("AliveDeg(0) = %d after removing its edges", got)
	}
	if got := after.Loops(0); got != 3 {
		t.Fatalf("Loops(0) = %d, want 3", got)
	}
	// Other K4 vertices lost exactly one edge each.
	for _, v := range []int{1, 2} {
		if got := after.AliveDeg(v); got != 2 {
			t.Fatalf("AliveDeg(%d) = %d, want 2", v, got)
		}
	}
}

func TestUsableEdgeCount(t *testing.T) {
	g, left := dumbbell()
	if got := WholeGraph(g).UsableEdgeCount(); got != 13 {
		t.Fatalf("UsableEdgeCount = %d, want 13", got)
	}
	if got := WholeGraph(g).Restrict(left).UsableEdgeCount(); got != 6 {
		t.Fatalf("restricted UsableEdgeCount = %d, want 6", got)
	}
}

func TestInterComponentEdges(t *testing.T) {
	g, _ := dumbbell()
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if got := WholeGraph(g).InterComponentEdges(labels); got != 1 {
		t.Fatalf("InterComponentEdges = %d, want 1", got)
	}
	labels[4] = Unreachable
	if got := WholeGraph(g).InterComponentEdges(labels); got != 0 {
		t.Fatalf("InterComponentEdges with Unreachable = %d, want 0", got)
	}
}

func TestMinConductanceBruteFindsBridge(t *testing.T) {
	g, left := dumbbell()
	set, phi := WholeGraph(g).MinConductanceBrute()
	if math.Abs(phi-1.0/13.0) > 1e-12 {
		t.Fatalf("brute Phi = %v, want 1/13", phi)
	}
	if !set.Equal(left) && !set.Equal(FullVSet(8).Minus(left)) {
		t.Fatalf("brute min cut = %v, want dumbbell halves", set.Members())
	}
}

func TestMostBalancedSparseCutBrute(t *testing.T) {
	g, left := dumbbell()
	s := WholeGraph(g)
	set, bal := s.MostBalancedSparseCutBrute(1.0 / 13.0)
	if set == nil || math.Abs(bal-0.5) > 1e-12 {
		t.Fatalf("most balanced sparse cut bal = %v, want 0.5", bal)
	}
	if !set.Equal(left) && !set.Equal(FullVSet(8).Minus(left)) {
		t.Fatalf("unexpected most-balanced set %v", set.Members())
	}
	// Below the bridge conductance nothing qualifies.
	if set, _ := s.MostBalancedSparseCutBrute(1.0 / 26.0); set != nil {
		t.Fatal("found sparse cut below min conductance")
	}
}

func TestConductanceMatchesBruteOnRandomGraphs(t *testing.T) {
	// Property: for random small graphs and random subsets,
	// Phi(S) >= brute-force minimum.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(5)
		b := NewBuilder(n)
		// Random connected-ish graph: spanning path + random extras.
		for v := 1; v < n; v++ {
			b.AddEdge(v-1, v)
		}
		for i := 0; i < n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		s := WholeGraph(g)
		_, minPhi := s.MinConductanceBrute()
		x := NewVSet(n)
		for v := 0; v < n; v++ {
			if r.Bool() {
				x.Add(v)
			}
		}
		if x.Len() == 0 || x.Len() == n {
			return true
		}
		return s.Conductance(x) >= minPhi-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeAdditivityProperty(t *testing.T) {
	// Property: Vol(S) + Vol(V\S) = Vol(V) for any subset.
	g, _ := dumbbell()
	f := func(bits uint8) bool {
		x := NewVSet(8)
		for v := 0; v < 8; v++ {
			if bits&(1<<v) != 0 {
				x.Add(v)
			}
		}
		rest := FullVSet(8).Minus(x)
		return g.Vol(x)+g.Vol(rest) == g.TotalVol()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
