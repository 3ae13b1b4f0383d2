package triangle

import (
	"context"
	"fmt"

	"dexpander/internal/graph"
	"dexpander/internal/par"
)

// This file holds the rank ordering every shared-memory count starts
// from: a degree-descending rank with forward-only adjacency (SNIPPETS
// snippet 2's compute_rank / forward_adjacency_lists idiom over our
// CSR). Every vertex keeps only its higher-rank neighbors, strictly
// sorted by rank, so each wedge is examined exactly once from its
// lowest-rank endpoint and a hub's adjacency is split across the
// vertices ranked below it: forward lists are O(sqrt(m)) long on any
// graph, which kills the O(deg^2) per-hub term an id-ordered kernel pays
// on power-law inputs. The CSR is a Forward (dist.go), and Forward.Set
// lists its triangles on the row ranges, schedule and pooled scratch
// Forward.Count counts them on (twod.go).
//
// Output contract: Set discovers each triangle at its lowest-RANK
// vertex but emits it as the vertex-sorted (A < B < C by original id)
// triple, so the result is exactly BruteForce's for any worker count.

// Kernel selects a triangle-count path. The zero value is KernelAuto,
// which currently resolves to the rank kernel — the fastest choice on
// both uniform and skewed degree distributions (see
// BenchmarkTriangleSkewed).
type Kernel int

const (
	// KernelAuto lets the library pick (currently: rank).
	KernelAuto Kernel = iota
	// KernelRank is the degree-rank forward-adjacency kernel.
	KernelRank
	// Kernel2D is the row-range counting path of twod.go (counting
	// only; enumeration entry points treat it as KernelRank).
	Kernel2D
)

// String renders the kernel the way the CLI flags spell it.
func (k Kernel) String() string {
	switch k {
	case KernelRank:
		return "rank"
	case Kernel2D:
		return "2d"
	default:
		return "auto"
	}
}

// ParseKernel parses the CLI/service spelling of a kernel name. "merge"
// names the retired id-ordered merge kernel, whose output was identical
// to rank's; it is accepted as an alias of rank.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "rank", "merge":
		return KernelRank, nil
	case "2d":
		return Kernel2D, nil
	}
	return KernelAuto, fmt.Errorf("triangle: unknown kernel %q (want rank, 2d, or auto)", s)
}

// rankCSR is the rank-permuted forward adjacency: order maps rank ->
// base vertex id (usable-degree descending, ties by ascending id, so
// the permutation is deterministic), and nbr[off[r]:off[r+1]] is the
// strictly-ascending deduped list of forward neighbor RANKS of the
// vertex with rank r. Non-member vertices carry degree 0 and sink to
// the bottom of the order with empty lists.
//
// The degree-descending permutation is a performance heuristic, not a
// correctness requirement: any deterministic permutation yields the
// same triangles — which is why the raw (parallel-edge-counting) usable
// degree is good enough and no deduped CSR has to exist first.
type rankCSR struct {
	order []int32
	off   []int32
	nbr   []int32
}

// fwd returns the forward list of the vertex with rank r.
func (rc rankCSR) fwd(r int) []int32 { return rc.nbr[rc.off[r]:rc.off[r+1]] }

// ranks returns the size of the rank space.
func (rc rankCSR) ranks() int { return len(rc.order) }

// whole returns the CSR as one zero-copy Fragment covering [0, ranks):
// off[0] is 0 and off[ranks] is len(nbr), so it is rebased as it stands.
func (rc rankCSR) whole() Fragment {
	return Fragment{Ranks: rc.ranks(), Lo: 0, Hi: int32(rc.ranks()), Off: rc.off, Nbr: rc.nbr}
}

// buildRankCSR derives the rank permutation and forward CSR straight
// from the view's edge list in O(n + m), with no comparison sort: a
// counting sort over degrees orders the vertex set, and a second
// counting pass buckets the edges by their higher-rank endpoint, so
// scattering the buckets in rank order fills every forward list in
// ascending order (no full symmetric CSR is ever built). A parallel
// edge repeats the entry just written to its list, so dedup is one
// comparison, and a final pass compacts the lists.
func buildRankCSR(view *graph.Sub) rankCSR {
	g := view.Base()
	n := g.N()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		deg[u]++
		deg[v]++
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Counting sort into degree-descending rank order; scanning vertex
	// ids ascending makes ties break by id deterministically.
	bucket := make([]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		bucket[deg[v]]++
	}
	var acc int32
	for d := maxDeg; d >= 0; d-- {
		c := bucket[d]
		bucket[d] = acc
		acc += c
	}
	order := make([]int32, n)
	rank := make([]int32, n)
	for v := 0; v < n; v++ {
		r := bucket[deg[v]]
		bucket[deg[v]]++
		order[r] = int32(v)
		rank[v] = r
	}
	// Forward counts per lower-rank endpoint, and bucket sizes per
	// higher-rank endpoint in deg (no longer needed as degrees).
	counts := make([]int32, n)
	byHi := deg
	clear(byHi)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		lo, hi := rank[u], rank[v]
		if hi < lo {
			lo, hi = hi, lo
		}
		counts[lo]++
		byHi[hi]++
	}
	// off is the exclusive prefix of counts, byHi becomes its own; then
	// each edge's lower rank lands in its higher rank's bucket of los,
	// after which byHi[r] is the end of bucket r.
	off := make([]int32, n+1)
	acc = 0
	for r := 0; r < n; r++ {
		off[r+1] = off[r] + counts[r]
		byHi[r], acc = acc, acc+byHi[r]
	}
	los := make([]int32, acc)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		lo, hi := rank[u], rank[v]
		if hi < lo {
			lo, hi = hi, lo
		}
		los[byHi[hi]] = lo
		byHi[hi]++
	}
	// Scatter the buckets in ascending higher rank, so each list fills
	// in ascending order and a parallel edge repeats its list's last
	// entry.
	nbr := make([]int32, off[n])
	fill := counts
	clear(fill)
	var b int32
	for hi, end := range byHi {
		for ; b < end; b++ {
			lo := los[b]
			if at := off[lo] + fill[lo]; fill[lo] == 0 || nbr[at-1] != int32(hi) {
				nbr[at] = int32(hi)
				fill[lo]++
			}
		}
	}
	// Compact the deduped lists: the write cursor w never passes a
	// list's start, so every list is read before anything lands on it
	// and off ends up dense.
	var w int32
	for r := 0; r < n; r++ {
		start := off[r]
		off[r] = w
		w += int32(copy(nbr[w:], nbr[start:start+fill[r]]))
	}
	off[n] = w
	return rankCSR{order: order, off: off, nbr: nbr[:w]}
}

// SetKernel collects the view's triangles into a Set with Forward.Set;
// workers <= 0 means GOMAXPROCS. k is accepted for callers that pass a
// parsed -kernel flag; every kernel yields the same set.
func SetKernel(view *graph.Sub, workers int, k Kernel) *Set {
	set, _ := NewForward(view).Set(context.Background(), workers)
	return set
}

// Set collects the CSR's triangles into a Set. It runs exactly as Count
// does: AutoGrid(workers) row ranges on par.ForEachContext, one
// "triangle.rows" span per range when ctx carries a span, and a
// canceled ctx stops it before the next range with ctx's error. Each
// range lists the triangles whose lowest-rank vertex it holds, so an
// uncanceled run returns exactly BruteForce's set for every worker
// count.
func (fw *Forward) Set(ctx context.Context, workers int) (*Set, error) {
	w := par.Workers(workers)
	cuts := fw.RowCuts(AutoGrid(w, fw.Ranks()))
	parts := make([][]Triangle, len(cuts)-1)
	err := fw.eachRange(ctx, w, cuts, func(i int, sc *intersectScratch) int {
		parts[i] = listRows(fw.rc, cuts[i], cuts[i+1], sc)
		return len(parts[i])
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	set := newSetSized(total)
	for _, p := range parts {
		for _, t := range p {
			set.Add(t)
		}
	}
	return set, nil
}

// listRows is countRows listing instead of counting: it walks the rows
// [lo, hi) of rc with the same two strategies and, where countRows adds
// one, appends the triangle (row, middle, apex) as its vertex-sorted
// triple. sc must span the rank space.
func listRows(rc rankCSR, lo, hi int32, sc *intersectScratch) []Triangle {
	var buf []int32
	var out []Triangle
	for r := lo; r < hi; r++ {
		fv := rc.fwd(int(r))
		if len(fv) < 2 {
			continue
		}
		sc.markAll(fv)
		a := int(rc.order[r])
		for i, m := range fv[:len(fv)-1] {
			fu := rc.fwd(int(m))
			b := int(rc.order[m])
			if apex := fv[i+1:]; len(fu) >= len(apex)*gallopRatio {
				buf = intersectGallop(apex, fu, buf[:0])
				for _, x := range buf {
					out = append(out, MakeTriangle(a, b, int(rc.order[x])))
				}
				continue
			}
			for _, x := range fu {
				if sc.marked(x) {
					out = append(out, MakeTriangle(a, b, int(rc.order[x])))
				}
			}
		}
	}
	return out
}
