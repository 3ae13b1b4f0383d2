package spectral

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// walkFamilies are the instances the engine-vs-oracle tests sweep:
// every structural regime the walk meets (cliques, sparse cuts, grids,
// random graphs, stars, loops via restricted views).
func walkFamilies(seed uint64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring-of-cliques": gen.RingOfCliques(4, 8, seed),
		"dumbbell":        gen.Dumbbell(10, 1, seed),
		"gnp":             gen.GNPConnected(48, 0.12, seed),
		"grid":            gen.Grid(7, 7),
		"torus":           gen.Torus(6),
		"expander":        gen.ExpanderByMatchings(32, 4, seed),
		"star":            gen.Star(17),
		"path":            gen.Path(23),
	}
}

// restrictedView drops a third of the vertices and a few edges so the
// walk sees implicit self-loops, exactly like mid-decomposition views.
func restrictedView(g *graph.Graph, seed uint64) *graph.Sub {
	members := graph.NewVSet(g.N())
	for v := 0; v < g.N(); v++ {
		if (uint64(v)*0x9e3779b97f4a7c15+seed)%3 != 0 {
			members.Add(v)
		}
	}
	if members.Empty() {
		members.Add(0)
	}
	mask := make([]bool, g.M())
	for e := range mask {
		mask[e] = (uint64(e)*0xbf58476d1ce4e5b9+seed)%7 != 0
	}
	return graph.NewSub(g, members, mask)
}

func sameDist(a, b Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSweep(a, b *SweepOrder) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for j := 0; j <= a.Len(); j++ {
		if a.PrefixVol[j] != b.PrefixVol[j] ||
			a.PrefixCut[j] != b.PrefixCut[j] ||
			a.Rho[j] != b.Rho[j] {
			return false
		}
	}
	return true
}

// TestWalkStateMatchesDenseOracle runs the sparse engine and the dense
// reference side by side through truncated walks and demands bit-equal
// distributions and sweep orders at every step, over whole and
// restricted views of every family.
func TestWalkStateMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, g := range walkFamilies(seed) {
			for _, mode := range []string{"whole", "restricted"} {
				view := graph.WholeGraph(g)
				if mode == "restricted" {
					view = restrictedView(g, seed)
				}
				start := view.MemberList()[int(seed)%len(view.MemberList())]
				eps := 1e-4 / float64(seed)

				ws := AcquireWalkState(view)
				ws.Init(start)
				dense := Chi(g.N(), start)
				for step := 1; step <= 25; step++ {
					ws.StepTruncate(eps)
					dense = Truncate(view, Step(view, dense), eps)
					if !sameDist(ws.Dist(), dense) {
						t.Fatalf("%s/%s seed %d step %d: sparse dist != dense dist", name, mode, seed, step)
					}
					if !sameSweep(ws.Sweep(), NewSweepOrderSupport(view, Rho(view, dense))) {
						t.Fatalf("%s/%s seed %d step %d: sweep order mismatch", name, mode, seed, step)
					}
					if ws.SupportLen() == 0 {
						break
					}
				}
				ws.Release()
			}
		}
	}
}

// TestWalkStateTouchedAndParticipating pins the touched set and P*
// against the dense bookkeeping (markTouched over every step's
// distribution, then the global usable-edge scan).
func TestWalkStateTouchedAndParticipating(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, g := range walkFamilies(seed) {
			view := restrictedView(g, seed)
			start := view.MemberList()[0]
			eps := 5e-4

			ws := AcquireWalkState(view)
			ws.Init(start)
			touched := graph.NewVSet(g.N())
			touched.Add(start)
			dense := Chi(g.N(), start)
			for step := 1; step <= 20; step++ {
				ws.StepTruncate(eps)
				dense = Truncate(view, Step(view, dense), eps)
				for v, x := range dense {
					if x > 0 {
						touched.Add(v)
					}
				}
			}
			if got, want := ws.Touched(), touched.Members(); !slicesEqual(got, want) {
				t.Fatalf("%s seed %d: touched %v, want %v", name, seed, got, want)
			}
			var wantP []int
			for e := 0; e < g.M(); e++ {
				if !view.Usable(e) {
					continue
				}
				u, v := g.EdgeEndpoints(e)
				if touched.Has(u) || touched.Has(v) {
					wantP = append(wantP, e)
				}
			}
			if got := ws.Participating(); !slicesEqual(got, wantP) {
				t.Fatalf("%s seed %d: P* %v, want %v", name, seed, got, wantP)
			}
			ws.Release()
		}
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWalkStateReuseAcrossTrials reruns a walk on a released-and-
// reacquired state (and on a different graph in between) and demands the
// same results as a fresh run, pinning the epoch-stamp reset logic. Every
// step is swept against the dense reference, and the pool is first filled
// by a swept walk on a larger graph, so a sweep order leaking from another
// walk into Sweep's seeded sort panics or reorders.
func TestWalkStateReuseAcrossTrials(t *testing.T) {
	large := graph.WholeGraph(gen.RingOfCliques(6, 12, 2))
	wlarge := AcquireWalkState(large)
	wlarge.Init(large.Base().N() - 1)
	for i := 0; i < 20; i++ {
		wlarge.StepTruncate(1e-6)
		wlarge.Sweep()
	}
	wlarge.Release()

	g := gen.RingOfCliques(4, 8, 1)
	view := graph.WholeGraph(g)
	run := func() (Dist, []int) {
		ws := AcquireWalkState(view)
		defer ws.Release()
		ws.Init(3)
		dense := Chi(g.N(), 3)
		for i := 0; i < 15; i++ {
			ws.StepTruncate(1e-4)
			dense = Truncate(view, Step(view, dense), 1e-4)
			if !sameSweep(ws.Sweep(), NewSweepOrderSupport(view, Rho(view, dense))) {
				t.Fatalf("step %d: pooled engine's sweep order differs from the dense one", i+1)
			}
		}
		return ws.Dist(), ws.Participating()
	}
	d1, p1 := run()
	// Pollute the pool with a walk on a smaller graph.
	small := graph.WholeGraph(gen.Path(5))
	wsmall := AcquireWalkState(small)
	wsmall.Init(0)
	wsmall.StepTruncate(0)
	wsmall.Sweep()
	wsmall.Release()
	d2, p2 := run()
	if !sameDist(d1, d2) || !slicesEqual(p1, p2) {
		t.Fatal("pooled reuse changed walk results")
	}
}

// TestWalkStateFixedPoint walks until StepTruncate reports no change,
// then demands that 50 more steps keep reporting none and leave the
// distribution and sweep order bit-identical.
func TestWalkStateFixedPoint(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"complete": gen.Complete(24),
		"torus":    gen.Torus(5),
	} {
		view := graph.WholeGraph(g)
		ws := AcquireWalkState(view)
		ws.Init(0)
		const eps = 1e-5
		step := 1
		for ; step <= 2000 && ws.StepTruncate(eps); step++ {
		}
		if step > 2000 || ws.SupportLen() == 0 {
			t.Fatalf("%s: walk reached no fixed point with live support", name)
		}
		dist := ws.Dist()
		sweep := ws.Sweep()
		fixed := SweepOrder{
			Vertices:  slices.Clone(sweep.Vertices),
			PrefixVol: slices.Clone(sweep.PrefixVol),
			PrefixCut: slices.Clone(sweep.PrefixCut),
			Rho:       slices.Clone(sweep.Rho),
		}
		for i := 1; i <= 50; i++ {
			if ws.StepTruncate(eps) {
				t.Fatalf("%s: step %d after the fixed point at %d reported a change", name, i, step)
			}
			if !sameDist(ws.Dist(), dist) || !sameSweep(ws.Sweep(), &fixed) {
				t.Fatalf("%s: step %d after the fixed point at %d moved the state", name, i, step)
			}
		}
		ws.Release()
	}
}

// TestSortSweepEnts pins the seeded sort to slices.SortFunc on random,
// reversed, nearly sorted and tied-rho inputs, and checks that reversed
// input exhausts the insertion budget and falls back.
func TestSortSweepEnts(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	random := make([]sweepEnt, 200)
	for i := range random {
		random[i] = sweepEnt{rho: r.Float64(), v: i}
	}
	sorted := slices.Clone(random)
	slices.SortFunc(sorted, compareSweepEnt)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	nearly := slices.Clone(sorted)
	for i := 0; i+1 < len(nearly); i += 9 {
		nearly[i], nearly[i+1] = nearly[i+1], nearly[i]
	}
	nearly[0], nearly[5] = nearly[5], nearly[0]
	tied := make([]sweepEnt, 200)
	for i := range tied {
		tied[i] = sweepEnt{rho: float64(r.IntN(4)) / 8, v: r.IntN(1000)*200 + i}
	}
	for _, tc := range []struct {
		name      string
		ents      []sweepEnt
		insertion bool // must finish within the move budget
		fallback  bool // must exhaust it
	}{
		{name: "random", ents: random},
		{name: "reversed", ents: reversed, fallback: true},
		{name: "nearly-sorted", ents: nearly, insertion: true},
		{name: "sorted", ents: sorted, insertion: true},
		{name: "tied-rho", ents: tied},
		{name: "single", ents: random[:1], insertion: true},
		{name: "empty", insertion: true},
	} {
		got := slices.Clone(tc.ents)
		want := slices.Clone(tc.ents)
		slices.SortFunc(want, compareSweepEnt)
		within := sortSweepEnts(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: seeded sort differs from slices.SortFunc", tc.name)
		}
		if tc.insertion && !within || tc.fallback && within {
			t.Fatalf("%s: insertion finished within budget = %v", tc.name, within)
		}
	}
}

// TestWalkStateSteadyStateAllocs pins the zero-allocation contract of
// the per-step hot path: after warm-up, StepTruncate plus Sweep allocate
// nothing.
func TestWalkStateSteadyStateAllocs(t *testing.T) {
	g := gen.RingOfCliques(6, 12, 1)
	view := graph.WholeGraph(g)
	ws := AcquireWalkState(view)
	defer ws.Release()
	ws.Init(0)
	for i := 0; i < 10; i++ { // warm up support and sweep buffers
		ws.StepTruncate(1e-6)
		ws.Sweep()
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.StepTruncate(1e-6)
		ws.Sweep()
	})
	if allocs != 0 {
		t.Fatalf("steady-state walk step allocates %v objects/op, want 0", allocs)
	}
}
