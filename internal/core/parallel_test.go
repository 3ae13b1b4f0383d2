package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/dnibble"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
)

// decomposeSerialReimpl is a literal sequential re-implementation of
// Decompose — direct mask mutation, inline loops, no fan-out or removal
// logs — sharing the staged seed schedule (per-task draws in task order,
// Phase 2 seed blocks sized by the iteration budget). It is the oracle
// the concurrent pipeline must match bit for bit.
func decomposeSerialReimpl(view *graph.Sub, opt Options, subs Subroutines) (*Decomposition, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := view.Base()
	n := g.N()
	m := float64(view.UsableEdgeCount())
	if m == 0 {
		labels, count := view.Components()
		return &Decomposition{Labels: labels, Count: count, FinalMask: make([]bool, g.M())}, nil
	}
	nf := float64(n)
	d := int(math.Ceil(math.Log(nf*nf) / -math.Log(1-opt.Eps/12)))
	if d < 1 {
		d = 1
	}
	beta := (opt.Eps / 3) / float64(d)
	logM := math.Log2(m)
	if logM < 1 {
		logM = 1
	}
	ladder := make([]float64, opt.K+1)
	ladder[0] = nibble.TransferHInv(view, opt.Eps/(6*logM), opt.Preset)
	for i := 1; i <= opt.K; i++ {
		ladder[i] = nibble.TransferHInv(view, ladder[i-1], opt.Preset)
	}
	mask := aliveMask(view)
	root := rng.New(opt.Seed)
	var seqNo uint64
	nextSeed := func() uint64 {
		seqNo++
		return root.Fork(seqNo).Uint64()
	}
	cur := func() *graph.Sub { return graph.NewSub(g, view.Members(), mask) }
	removeWhere := func(u *graph.VSet, keep func(a, b int) bool) int64 {
		var removed int64
		for e := 0; e < g.M(); e++ {
			if !mask[e] {
				continue
			}
			a, b := g.EdgeEndpoints(e)
			if !u.Has(a) || !u.Has(b) {
				continue
			}
			if keep(a, b) {
				mask[e] = false
				removed++
			}
		}
		return removed
	}
	dec := &Decomposition{PhiTarget: ladder[opt.K], PhiLadder: ladder}
	var stats congest.Stats

	tasks := splitComponents(cur(), view.Members())
	var phase2 []*graph.VSet
	for depth := 0; len(tasks) > 0 && depth < d; {
		depth++
		dec.Phase1Depth = depth
		var lddPar, cutPar congest.Stats
		var afterLDD []*graph.VSet
		for _, u := range tasks {
			res, cs, err := subs.LDD(cur().Restrict(u), beta, nextSeed())
			if err != nil {
				return nil, err
			}
			lddPar.CombineParallel(cs)
			dec.Removed1 += removeWhere(u, func(a, b int) bool {
				la, lb := res.Labels[a], res.Labels[b]
				return a != b && la != graph.Unreachable && lb != graph.Unreachable && la != lb
			})
			afterLDD = append(afterLDD, splitComponents(cur(), u)...)
		}
		var next []*graph.VSet
		for _, u := range afterLDD {
			cut, cs, err := subs.SparseCut(cur().Restrict(u), u, ladder[0], nextSeed())
			if err != nil {
				return nil, err
			}
			cutPar.CombineParallel(cs)
			switch {
			case cut.Empty():
			case float64(g.Vol(cut.C)) <= opt.Eps/12*float64(g.Vol(u)):
				phase2 = append(phase2, u)
			default:
				dec.Removed2 += removeWhere(u, func(a, b int) bool {
					return a != b && cut.C.Has(a) != cut.C.Has(b)
				})
				rest := u.Minus(cut.C)
				next = append(next, splitComponents(cur(), cut.C)...)
				next = append(next, splitComponents(cur(), rest)...)
			}
		}
		stats.Add(lddPar)
		stats.Add(cutPar)
		tasks = next
	}
	phase2 = append(phase2, tasks...)

	// Phase 2: seed blocks reserved in component order, then each
	// component's ladder runs to completion.
	budget := func(u *graph.VSet) (float64, int) {
		tau := math.Pow(opt.Eps/6*float64(g.Vol(u)), 1/float64(opt.K))
		if tau < 2 {
			tau = 2
		}
		return tau, opt.K*(int(2*tau)+4) + 8
	}
	bases := make([]uint64, len(phase2))
	taus := make([]float64, len(phase2))
	budgets := make([]int, len(phase2))
	for i, u := range phase2 {
		taus[i], budgets[i] = budget(u)
		bases[i] = seqNo + 1
		seqNo += uint64(budgets[i])
	}
	var p2Par congest.Stats
	for i, u := range phase2 {
		tau, maxIters := taus[i], budgets[i]
		mL := opt.Eps / 6 * float64(g.Vol(u))
		level := 1
		active := u.Clone()
		var cs congest.Stats
		iters := 0
		for iters < maxIters {
			seed := root.Fork(bases[i] + uint64(iters)).Uint64()
			iters++
			cut, one, err := subs.SparseCut(cur().Restrict(u), active, ladder[level], seed)
			if err != nil {
				return nil, err
			}
			cs.Add(one)
			if cut.Empty() {
				break
			}
			if float64(g.Vol(cut.C)) <= mL/(2*tau) {
				if level == opt.K {
					break
				}
				level++
				mL /= tau
				continue
			}
			dec.Removed3 += removeWhere(u, func(a, b int) bool {
				return cut.C.Has(a) || cut.C.Has(b)
			})
			active.RemoveAll(cut.C)
			if active.Empty() {
				break
			}
		}
		if iters > dec.Phase2MaxIterations {
			dec.Phase2MaxIterations = iters
		}
		p2Par.CombineParallel(cs)
	}
	dec.Stats.Add(p2Par)
	dec.Stats.Add(stats)

	final := graph.NewSub(g, view.Members(), mask)
	dec.Labels, dec.Count = final.Components()
	dec.FinalMask = mask
	dec.CutEdges = dec.Removed1 + dec.Removed2 + dec.Removed3
	dec.EpsAchieved = float64(dec.CutEdges) / m
	view.Members().ForEach(func(v int) {
		if final.AliveDeg(v) == 0 {
			dec.Singletons++
		}
	})
	return dec, nil
}

// decompositionsEqual reports full bit-identity of two decompositions.
func decompositionsEqual(a, b *Decomposition) error {
	if a.Count != b.Count || a.CutEdges != b.CutEdges ||
		a.Removed1 != b.Removed1 || a.Removed2 != b.Removed2 || a.Removed3 != b.Removed3 ||
		a.Phase1Depth != b.Phase1Depth || a.Phase2MaxIterations != b.Phase2MaxIterations ||
		a.Singletons != b.Singletons || a.Stats != b.Stats {
		return fmt.Errorf("scalars differ:\n%+v\n%+v", a, b)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			return fmt.Errorf("labels differ at vertex %d: %d vs %d", v, a.Labels[v], b.Labels[v])
		}
	}
	for e := range a.FinalMask {
		if a.FinalMask[e] != b.FinalMask[e] {
			return fmt.Errorf("final mask differs at edge %d", e)
		}
	}
	return nil
}

// TestDecomposeMatchesSerialReimpl pins the concurrent pipeline against
// the sequential oracle across graph shapes that exercise every removal
// site (Phase 1 recursion, Phase 2 peeling) and seeds.
func TestDecomposeMatchesSerialReimpl(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		eps  float64
		k    int
	}{
		{"dumbbell", gen.Dumbbell(24, 1, 1), 0.4, 2},
		{"ring-of-cliques", gen.RingOfCliques(6, 12, 3), 0.6, 2},
		{"planted", gen.PlantedPartition(5, 12, 0.7, 0.03, 5), 0.4, 2},
		{"unbalanced", gen.UnbalancedDumbbell(30, 4, 1), 0.2, 3},
	}
	seeds := uint64(3)
	if testing.Short() {
		// Keep the CI race job fast: one seed over the two removal-site
		// extremes (Phase 1 recursion; Phase 2 peeling with K=3).
		cases = []struct {
			name string
			g    *graph.Graph
			eps  float64
			k    int
		}{cases[0], cases[3]}
		seeds = 1
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= seeds; seed++ {
				opt := Options{Eps: c.eps, K: c.k, Preset: nibble.Practical, Seed: seed}
				subs := SeqSubroutines{Preset: nibble.Practical}
				got, err := Decompose(graph.WholeGraph(c.g), opt, subs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := decomposeSerialReimpl(graph.WholeGraph(c.g), opt, subs)
				if err != nil {
					t.Fatal(err)
				}
				if err := decompositionsEqual(got, want); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestDecomposeGOMAXPROCSSweep pins bit-identical output for every
// worker regime: GOMAXPROCS 1 runs the tasks inline, larger values fan
// out, and explicit Workers overrides must change nothing.
func TestDecomposeGOMAXPROCSSweep(t *testing.T) {
	g := gen.RingOfCliques(6, 12, 3)
	opt := Options{Eps: 0.6, K: 2, Preset: nibble.Practical, Seed: 3}
	subs := SeqSubroutines{Preset: nibble.Practical}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *Decomposition
	check := func(label string) {
		dec, err := Decompose(graph.WholeGraph(g), opt, subs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = dec
			if dec.CutEdges == 0 {
				t.Fatal("sweep needs a decomposition that actually cuts")
			}
			return
		}
		if err := decompositionsEqual(dec, first); err != nil {
			t.Fatalf("%s changed the decomposition: %v", label, err)
		}
	}
	procsSweep, workersSweep := []int{1, 2, 3, 8}, []int{1, 2, 7}
	if testing.Short() {
		procsSweep, workersSweep = []int{1, 3}, []int{2}
	}
	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		check(fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	runtime.GOMAXPROCS(4)
	for _, workers := range workersSweep {
		opt.Workers = workers
		check(fmt.Sprintf("Workers=%d", workers))
	}
}

// TestDecomposeParallelDistStats runs the concurrent pipeline with the
// distributed subroutines on a small instance: the simulated CONGEST
// stats must themselves be bit-identical across worker counts (each task
// spawns its own engine; the parallel combination is deterministic).
func TestDecomposeParallelDistStats(t *testing.T) {
	g := gen.Dumbbell(8, 1, 1)
	opt := Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: 2}
	subs := dnibble.DistSubroutines{Preset: nibble.Practical}
	var first *Decomposition
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		dec, err := Decompose(graph.WholeGraph(g), opt, subs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = dec
			if dec.Stats.Rounds == 0 || dec.Stats.Messages == 0 {
				t.Fatalf("distributed subroutines recorded no cost: %+v", dec.Stats)
			}
			continue
		}
		if err := decompositionsEqual(dec, first); err != nil {
			t.Fatalf("Workers=%d changed the distributed run: %v", workers, err)
		}
	}
}
