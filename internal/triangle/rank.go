package triangle

import (
	"context"
	"fmt"
	"slices"

	"dexpander/internal/graph"
	"dexpander/internal/par"
)

// This file implements the shared-memory triangle kernel: a
// degree-descending rank ordering with forward-only adjacency (SNIPPETS
// snippet 2's compute_rank / forward_adjacency_lists idiom over our
// CSR). Every vertex keeps only its higher-rank neighbors, strictly
// sorted by rank, so each wedge is examined exactly once from its
// lowest-rank endpoint and a hub's adjacency is split across the
// vertices ranked below it: forward lists are O(sqrt(m)) long on any
// graph, which kills the O(deg^2) per-hub term an id-ordered kernel pays
// on power-law inputs. Intersections go through the adaptive strategies
// in intersect.go, with the per-worker stamp array marked once per
// vertex. The same forward CSR backs the 2D counting path (twod.go) and
// its distribution seam (dist.go).
//
// Output contract: the kernel discovers each triangle at its lowest-RANK
// vertex but emits it as the vertex-sorted (A < B < C by original id)
// triple into a Set, so the result is exactly BruteForce's for any
// worker count.

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
// from the view's edge list in O(n + m + sort(forward lists)): a
// counting sort over degrees replaces a comparator sort of the vertex
// set, forward edges scatter directly from the edge list (no full
// symmetric CSR is ever built), and only the short forward lists — max
// length O(sqrt(m)) — get sorted and deduped.
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
	// Forward counts and scatter: each usable edge lands once, in its
	// lower-rank endpoint's list.
	counts := make([]int32, n)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		lo := rank[u]
		if rank[v] < lo {
			lo = rank[v]
		}
		counts[lo]++
	}
	off := make([]int32, n+1)
	for r := 0; r < n; r++ {
		off[r+1] = off[r] + counts[r]
	}
	nbr := make([]int32, off[n])
	fill := counts
	for i := range fill {
		fill[i] = 0
	}
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		lo, hi := rank[u], rank[v]
		if hi < lo {
			lo, hi = hi, lo
		}
		nbr[off[lo]+fill[lo]] = hi
		fill[lo]++
	}
	// Sort each list and collapse parallel edges, compacting as we go:
	// the write cursor w never passes the read cursor, so every list is
	// read before anything lands on it and off ends up dense.
	var w, src int32
	for r := 0; r < n; r++ {
		seg := nbr[src : src+fill[r]]
		src += fill[r]
		slices.Sort(seg)
		off[r] = w
		for i, x := range seg {
			if i > 0 && x == seg[i-1] {
				continue
			}
			nbr[w] = x
			w++
		}
	}
	off[n] = w
	return rankCSR{order: order, off: off, nbr: nbr[:w]}
}

// SetKernel collects the view's triangles into a Set with the rank
// kernel; workers <= 0 means GOMAXPROCS. k is accepted for callers that
// pass a parsed -kernel flag; every kernel yields the same set.
func SetKernel(view *graph.Sub, workers int, k Kernel) *Set {
	set, _ := SetKernelContext(context.Background(), view, workers)
	return set
}

// SetKernelContext enumerates every triangle once from its lowest-rank
// vertex, sharded by rank range across workers, and collects them into a
// Set. The checkpoint carried by ctx (par.CheckpointFromContext) is
// probed once per rank: a canceled run stops within one vertex's
// intersections and returns ctx's error; an uncanceled run returns
// exactly SetKernel's set.
func SetKernelContext(ctx context.Context, view *graph.Sub, workers int) (*Set, error) {
	cp := par.CheckpointFromContext(ctx)
	rc := buildRankCSR(view)
	// One shard per worker: contiguous rank ranges balanced by wedge
	// work, cut as Forward.RowCuts cuts them.
	cuts := cutPrefix(wedgePrefix(rc), max(1, min(par.Workers(workers), rc.ranks())))
	shards := len(cuts) - 1
	out := make([][]Triangle, shards)
	errs := make([]error, shards)
	par.ForEach(shards, shards, func(si int) {
		sc := newIntersectScratch(rc.ranks())
		var buf []int32
		var local []Triangle
		for r := int(cuts[si]); r < int(cuts[si+1]); r++ {
			if cp != nil {
				if err := cp(); err != nil {
					errs[si] = err
					return
				}
			}
			fv := rc.fwd(r)
			if len(fv) < 2 {
				continue
			}
			// One markAll serves every pair (r, u): the probes see the
			// full fv, which intersects each fwd(u) exactly like the
			// above-u suffix does (every common rank exceeds u's).
			sc.markAll(fv)
			a := int(rc.order[r])
			for i := 0; i+1 < len(fv); i++ {
				ru := fv[i]
				buf = intersectAdaptive(fv[i+1:], rc.fwd(int(ru)), sc, true, buf[:0])
				b := int(rc.order[ru])
				for _, rw := range buf {
					local = append(local, MakeTriangle(a, b, int(rc.order[rw])))
				}
			}
		}
		out[si] = local
	})
	total := 0
	for si := range out {
		if errs[si] != nil {
			return nil, errs[si]
		}
		total += len(out[si])
	}
	set := newSetSized(total)
	for _, shard := range out {
		for _, t := range shard {
			set.Add(t)
		}
	}
	return set, nil
}
