package dnibble

import (
	"math"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

func TestApproximateNibbleFindsDumbbellCut(t *testing.T) {
	g := gen.Dumbbell(8, 1, 1)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.05)
	res, stats, err := approximateNibble(congest.NewTopology(view), view, pr, 0, 5, &walkScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty() {
		t.Fatal("distributed nibble found nothing on a dumbbell")
	}
	if phi := view.Conductance(res.C); phi > 12*pr.Phi {
		t.Fatalf("cut conductance %v > 12 phi", phi)
	}
	if vol := float64(view.Vol(res.C)); vol > 11.0/12.0*float64(view.TotalVol()) {
		t.Fatal("cut volume violates (C.3*)")
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	// The walk phase alone is T0 rounds.
	if stats.Rounds < pr.T0 {
		t.Fatalf("rounds %d below walk length %d", stats.Rounds, pr.T0)
	}
}

func TestApproximateNibbleEmptyOnExpander(t *testing.T) {
	g := gen.Complete(16)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.05)
	res, _, err := approximateNibble(congest.NewTopology(view), view, pr, 0, 3, &walkScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatalf("found a cut with conductance %v on K16", view.Conductance(res.C))
	}
}

func TestApproximateNibblePStar(t *testing.T) {
	g := gen.Dumbbell(8, 1, 2)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.05)
	res, _, err := approximateNibble(congest.NewTopology(view), view, pr, 0, 5, &walkScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PStar) == 0 {
		t.Fatal("empty P*")
	}
	// Every edge inside C must be in P*.
	inP := make(map[int]bool)
	for _, e := range res.PStar {
		inP[e] = true
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if res.C.Has(u) && res.C.Has(v) && !inP[e] {
			t.Fatalf("edge %d inside C missing from P*", e)
		}
	}
}

func TestApproximateNibbleRespectsView(t *testing.T) {
	// Restrict the walk to half the dumbbell; the cut must stay inside.
	g := gen.Dumbbell(8, 1, 3)
	members := graph.NewVSet(g.N())
	for v := 0; v < 8; v++ {
		members.Add(v)
	}
	view := graph.NewSub(g, members, nil)
	comm := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.3)
	res, _, err := approximateNibble(congest.NewTopology(comm), view, pr, 0, 3, &walkScratch{})
	if err != nil {
		t.Fatal(err)
	}
	res.C.ForEach(func(v int) {
		if !members.Has(v) {
			t.Fatalf("cut contains non-member %d", v)
		}
	})
}

func TestSparseCutTheorem3Distributed(t *testing.T) {
	g := gen.Dumbbell(10, 1, 1)
	view := graph.WholeGraph(g)
	phi := 1.0 / 45.0
	res, stats, err := SparseCut(view, view, phi, nibble.Practical, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty() {
		t.Fatal("distributed SparseCut found nothing")
	}
	if res.Balance < 1.0/48.0 {
		t.Fatalf("balance %v below 1/48", res.Balance)
	}
	if h := nibble.TransferH(view, phi, nibble.Practical); res.Conductance > h {
		t.Fatalf("conductance %v above H=%v", res.Conductance, h)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestDistSubroutinesDecompose(t *testing.T) {
	// Full Theorem 1 with distributed subroutines on a splittable ring.
	g := gen.RingOfCliques(4, 12, 3)
	view := graph.WholeGraph(g)
	dec, err := core.Decompose(view, core.Options{
		Eps:    0.6,
		K:      2,
		Preset: nibble.Practical,
		Seed:   19,
	}, DistSubroutines{Preset: nibble.Practical})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.CheckPartition(view); err != nil {
		t.Fatal(err)
	}
	if dec.EpsAchieved > 0.6 {
		t.Fatalf("eps %v above target", dec.EpsAchieved)
	}
	if dec.Stats.Rounds == 0 {
		t.Fatal("distributed decomposition reported zero rounds")
	}
	q := dec.Evaluate(view)
	if q.MinPhiLower < dec.PhiTarget {
		t.Fatalf("quality %s below target %v", q, dec.PhiTarget)
	}
}

func TestDistMatchesSequentialContract(t *testing.T) {
	// Distributed and sequential runs need not agree pointwise (their
	// randomness differs) but both must satisfy the Theorem 3 contract
	// on the same input.
	g := gen.UnbalancedDumbbell(14, 7, 1)
	view := graph.WholeGraph(g)
	small := graph.NewVSet(g.N())
	for v := 14; v < 21; v++ {
		small.Add(v)
	}
	b := view.Balance(small)
	phi := 2 * view.Conductance(small)
	dres, _, err := SparseCut(view, view, phi, nibble.Practical, 23)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Empty() {
		t.Fatal("distributed cut empty")
	}
	want := math.Min(b/2, 1.0/48.0)
	if dres.Balance < want {
		t.Fatalf("distributed balance %v below floor %v", dres.Balance, want)
	}
}
