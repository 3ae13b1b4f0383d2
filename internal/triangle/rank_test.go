package triangle

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// kernelFamilies spans the degree-distribution regimes the kernels must
// agree on: uniform random, heavy-tail Chung-Lu, preferential
// attachment, clustered, triangle-free bipartite, star (one hub, zero
// triangles), complete (every wedge closes), and flat grid.
func kernelFamilies() map[string]func(seed uint64) *graph.Graph {
	return map[string]func(seed uint64) *graph.Graph{
		"gnp":             func(s uint64) *graph.Graph { return gen.GNP(70, 0.2, s) },
		"chung-lu-heavy":  func(s uint64) *graph.Graph { return gen.ChungLu(90, 2.1, 8, s) },
		"barabasi-albert": func(s uint64) *graph.Graph { return gen.BarabasiAlbert(90, 4, s) },
		"ring":            func(s uint64) *graph.Graph { return gen.RingOfCliques(4, 8, s) },
		"bipartite":       func(s uint64) *graph.Graph { return gen.BipartiteGNP(30, 30, 0.2, s) },
		"star":            func(s uint64) *graph.Graph { return gen.Star(40) },
		"complete":        func(s uint64) *graph.Graph { return gen.Complete(18) },
		"grid":            func(s uint64) *graph.Graph { return gen.Grid(7, 9) },
	}
}

// sameTriangles fails the test unless got and want are element-for-
// element identical.
func sameTriangles(t *testing.T, what string, got, want []Triangle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d triangles, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: triangle %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRankKernelBitIdenticalAllFamilies pins the kernel contract: for
// every family, seed, and worker count, the Set path's sorted triangle
// slice is element-for-element identical to BruteForce's, and the
// counting path returns the same count.
func TestRankKernelBitIdenticalAllFamilies(t *testing.T) {
	workerCounts := []int{1, 2, 3, 13, runtime.GOMAXPROCS(0)}
	for name, build := range kernelFamilies() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				view := graph.WholeGraph(build(seed))
				want := BruteForce(view).Sorted()
				for _, workers := range workerCounts {
					what := fmt.Sprintf("seed %d workers %d", seed, workers)
					sameTriangles(t, what, SetKernel(view, workers, KernelRank).Sorted(), want)
					if c := CountParallel2D(view, workers); c != len(want) {
						t.Fatalf("%s: 2D count %d, want %d", what, c, len(want))
					}
				}
			}
		})
	}
}

// TestRankKernelSetOracle pins Forward.Set on every oracleCases()
// family, the hub-skew graph whose rows take the gallop arm included:
// at every worker count the rank tests use, under a live cancelable
// context, its sorted set is BruteForce's element for element, and one
// Forward serves every run.
func TestRankKernelSetOracle(t *testing.T) {
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, tc := range oracleCases() {
		want := BruteForce(tc.view).Sorted()
		fw := NewForward(tc.view)
		for _, workers := range []int{1, 2, 3, 13, runtime.GOMAXPROCS(0)} {
			set, err := fw.Set(live, workers)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, workers, err)
			}
			sameTriangles(t, fmt.Sprintf("%s workers %d", tc.name, workers), set.Sorted(), want)
		}
	}
}

// TestRankKernelRestrictedViews pins the kernels on graph.Sub views with
// member restrictions and edge masks — the shape the decomposition
// pipeline feeds them.
func TestRankKernelRestrictedViews(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := gen.BarabasiAlbert(60, 5, seed)
		members := graph.NewVSet(g.N())
		for v := 0; v < g.N(); v++ {
			if v%3 != 0 {
				members.Add(v)
			}
		}
		mask := make([]bool, g.M())
		for e := 0; e < g.M(); e++ {
			mask[e] = e%7 != 0
		}
		view := graph.NewSub(g, members, mask)
		want := BruteForce(view).Sorted()
		sameTriangles(t, fmt.Sprintf("seed %d", seed), SetKernel(view, 3, KernelRank).Sorted(), want)
		if c := CountParallel2D(view, 0); c != len(want) {
			t.Fatalf("seed %d: 2D count %d, want %d", seed, c, len(want))
		}
	}
}

// TestRankKernelGOMAXPROCSSweep varies GOMAXPROCS itself (the workers=0
// default path) and demands identical output, mirroring the parallel
// pipelines' GOMAXPROCS sweeps.
func TestRankKernelGOMAXPROCSSweep(t *testing.T) {
	g := gen.BarabasiAlbert(120, 6, 3)
	view := graph.WholeGraph(g)
	ref := SetKernel(view, 1, KernelRank).Sorted()
	ref2d := CountParallel2D(view, 1)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		sameTriangles(t, fmt.Sprintf("GOMAXPROCS %d", procs), SetKernel(view, 0, KernelRank).Sorted(), ref)
		if c := CountParallel2D(view, 0); c != ref2d {
			t.Fatalf("GOMAXPROCS %d: 2D count %d, want %d", procs, c, ref2d)
		}
	}
}

// planCount sums a p x p plan's block-triple counts in task order — the
// 2D path with an explicit grid dimension.
func planCount(view *graph.Sub, p int) int {
	pl := NewDistPlan(view, p)
	n := 0
	for _, t := range pl.Tiling.Triples() {
		n += pl.CountTriple(t)
	}
	return n
}

// Test2DGridSweep pins the tiling-independence of the 2D path: any p
// must give the same count, including p=1 (one task) and p larger than
// the balanced tiling would pick.
func Test2DGridSweep(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.ChungLu(100, 2.1, 10, seed)
		view := graph.WholeGraph(g)
		want := BruteForce(view).Len()
		for _, p := range []int{1, 2, 3, 5, 8, 31} {
			if c := planCount(view, p); c != want {
				t.Fatalf("seed %d p=%d: count %d, want %d", seed, p, c, want)
			}
		}
	}
}

// TestRankKernelMultigraph checks parallel edges and loops collapse
// exactly as in the oracle, through the rank and 2D paths and through
// encoded fragments, whose lists must come out of the compacted CSR
// deduped.
func TestRankKernelMultigraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 2) // loop
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	view := graph.WholeGraph(b.Graph())
	if got := SetKernel(view, 2, KernelRank).Len(); got != 2 {
		t.Fatalf("multigraph: rank found %d triangles, want 2", got)
	}
	if c := CountParallel2D(view, 2); c != 2 {
		t.Fatalf("multigraph: 2D count %d, want 2", c)
	}
	for p := 1; p <= 4; p++ {
		pl := NewDistPlan(view, p)
		frags := make([]*Fragment, pl.Tiling.P)
		for b := range frags {
			f, err := DecodeFragment(pl.Fragment(b).Encode())
			if err != nil {
				t.Fatalf("p=%d block %d: %v", p, b, err)
			}
			frags[b] = f
		}
		n := 0
		for _, tr := range pl.Tiling.Triples() {
			c, err := CountFragments(pl.Tiling, tr, frags[tr.I], frags[tr.J])
			if err != nil {
				t.Fatalf("p=%d triple %+v: %v", p, tr, err)
			}
			n += c
		}
		if n != 2 {
			t.Fatalf("multigraph p=%d: fragments counted %d, want 2", p, n)
		}
	}
}

func TestKernelParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kernel
	}{{"", KernelAuto}, {"auto", KernelAuto}, {"rank", KernelRank}, {"2d", Kernel2D}} {
		k, err := ParseKernel(c.in)
		if err != nil || k != c.want {
			t.Fatalf("ParseKernel(%q) = %v, %v", c.in, k, err)
		}
	}
	for _, unknown := range []string{"quantum", "merge"} {
		if _, err := ParseKernel(unknown); err == nil {
			t.Fatalf("ParseKernel accepted unknown kernel %q", unknown)
		}
	}
	for _, k := range []Kernel{KernelAuto, KernelRank, Kernel2D} {
		back, err := ParseKernel(k.String())
		if err != nil || back != k {
			t.Fatalf("round trip %v -> %q -> %v, %v", k, k.String(), back, err)
		}
	}
}
