package triangle

import (
	"context"
	"sync"

	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/par"
)

// This file implements the 2D edge-partitioned counting path (after Tom
// & Karypis, arXiv 1907.09575): the rank space is tiled into p
// contiguous ranges balanced by forward volume, and each ordered block
// triple (i <= j <= k) becomes one independent task counting the
// triangles whose lowest-rank vertex falls in range i, middle vertex in
// range j, and apex in range k. Because every triangle has strictly
// increasing ranks along (lowest, middle, apex), each is counted by
// exactly one task. Tasks carry private accumulators and reduce in task
// order, so the total is deterministic for any worker count — and since
// each task only touches two rank ranges of the forward CSR, the same
// tiling is the seam for fanning counting out across dexpanderd
// replicas (dist.go), where a block pair is a shippable unit of work.
// countTriple is the one task body every path runs: locally over
// zero-copy views of the CSR, on a replica over decoded fragments.

// twoDScratchPool recycles the per-task stamp arrays; tasks are coarse,
// so pool churn is negligible next to the intersection work.
var twoDScratchPool sync.Pool

func getTwoDScratch(universe int) *intersectScratch {
	if sc, ok := twoDScratchPool.Get().(*intersectScratch); ok && len(sc.mark) >= universe {
		return sc
	}
	return newIntersectScratch(universe)
}

// twoDGrid picks the tiling dimension for a worker count: the smallest p
// whose C(p+2, 3) ordered block triples give every worker a few tasks to
// balance across, capped so tiny graphs are not shredded into empty
// blocks. Deterministic in (workers, ranks) only — and the OUTPUT is a
// sum of per-task counts, so it is identical for every p anyway.
func twoDGrid(workers, ranks int) int {
	if ranks == 0 {
		return 1
	}
	target := 4 * workers
	p := 1
	for p*(p+1)*(p+2)/6 < target && p < ranks {
		p++
	}
	return p
}

// CountParallel2D counts the view's triangles on the 2D edge-partitioned
// path with an automatically sized block grid; workers <= 0 means
// GOMAXPROCS. The count always equals the rank kernel's.
func CountParallel2D(view *graph.Sub, workers int) int {
	n, _ := CountParallel2DContext(context.Background(), view, workers)
	return n
}

// CountParallel2DContext is CountParallel2D under a context: its
// checkpoint (par.CheckpointFromContext) is probed before each block
// triple starts, so once ctx is done no further tasks begin and ctx's
// error is returned; when ctx carries a span (obs.ContextWithSpan) each
// block triple runs under a "triangle.triple" child span holding its
// (bi, bj, bk) coordinates and count. Counts are identical either way.
func CountParallel2DContext(ctx context.Context, view *graph.Sub, workers int) (int, error) {
	w := par.Workers(workers)
	pl := NewDistPlan(view, twoDGrid(w, view.Base().N()))
	triples := pl.Tiling.Triples()
	counts := make([]int, len(triples))
	sp := obs.SpanFromContext(ctx)
	err := par.ForEachCheck(w, len(triples), par.CheckpointFromContext(ctx), func(ti int) {
		t := triples[ti]
		child := sp.Child("triangle.triple")
		child.AttrInt("bi", t.I).AttrInt("bj", t.J).AttrInt("bk", t.K)
		counts[ti] = pl.CountTriple(t)
		child.AttrInt("count", counts[ti])
		child.End()
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// rankCuts splits [0, ranks) into p contiguous ranges balanced by
// forward-list volume (the quantity intersections actually touch), not
// vertex count: rank 0 is the heaviest hub, and volume balancing keeps
// its block from dominating a row of the grid.
func rankCuts(rc rankCSR, p int) []int32 {
	cuts := make([]int32, p+1)
	total := int64(len(rc.nbr)) + int64(rc.ranks())
	var acc int64
	b := 1
	for r := 0; r < rc.ranks() && b < p; r++ {
		acc += int64(len(rc.fwd(r))) + 1
		if acc >= total*int64(b)/int64(p) {
			cuts[b] = int32(r + 1)
			b++
		}
	}
	for ; b < p; b++ {
		cuts[b] = int32(rc.ranks())
	}
	cuts[p] = int32(rc.ranks())
	return cuts
}

// rangeOf returns the [lo, hi) index window of the ranks in s falling
// inside [from, to). s is strictly ascending.
func rangeOf(s []int32, from, to int32) (int, int) {
	return lowerBound(s, from), lowerBound(s, to)
}

// lowerBound returns the index of the first element of s >= x.
func lowerBound(s []int32, x int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countTriple is the block-triple task: it counts the triangles whose
// lowest-rank vertex lies in fi's rows (block t.I of tl), middle vertex
// in block t.J — whose rows fj holds — and apex in block t.K. Callers
// guarantee the fragments cover those blocks and that sc spans tl.Ranks.
func countTriple(tl Tiling, t BlockTriple, fi, fj *Fragment, sc *intersectScratch) int {
	jLo, jHi := tl.Block(t.J)
	kLo, kHi := tl.Block(t.K)
	n := 0
	for r := fi.Lo; r < fi.Hi; r++ {
		fv := fi.Fwd(r)
		// Middle vertices: forward neighbors of r inside block j.
		mLo, mHi := rangeOf(fv, jLo, jHi)
		if mLo == mHi {
			continue
		}
		// Apexes live in block k; slice v's forward list down to it
		// once — per-u suffixes are then cheap re-slices.
		aLo, aHi := rangeOf(fv, kLo, kHi)
		for m := mLo; m < mHi; m++ {
			va := fv[aLo:aHi]
			if t.J == t.K {
				// Apex must also be above the middle vertex.
				va = fv[max(m+1, aLo):aHi]
			}
			fu := fj.Fwd(fv[m])
			uLo, uHi := rangeOf(fu, kLo, kHi)
			n += intersectCount(va, fu[uLo:uHi], sc)
		}
	}
	return n
}
