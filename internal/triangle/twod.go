package triangle

import (
	"context"
	"slices"
	"sort"
	"sync"

	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/par"
)

// This file implements the row-range schedule every shared-memory count
// runs: Forward.Count (CountParallel2D, dexpanderd's kernel=2d and
// peer-less count-dist) and Forward.Set (rank.go: SetKernel,
// kernel=rank|auto). Each triangle is charged to its lowest-rank vertex,
// so the rank space splits into contiguous row ranges that run
// independently against one forward CSR (SNIPPETS snippet 2's
// rank-ordered forward lists). A range's task marks each row's forward
// list once and probes every middle's list against the marks, or
// gallops through a far longer one (intersect.go), so a job examines
// each wedge once however many ranges it is cut into. Ranges are
// balanced by wedge work, read off a prefix each Forward builds once
// (RowCuts), and Count and Set share one schedule (eachRange): the same
// cuts, the same pooled scratch, one cancellation probe per range and
// one "triangle.rows" span per range. Tasks keep private results that
// reduce in range order, so the output is the same for every worker
// count and every cut. A counting task reads only the CSR and its two
// bounds, which makes a range the unit count-dist sends to a replica
// holding the whole CSR.
//
// countTriple, the task of Tom & Karypis's (I, J, K) block-triple
// tiling (arXiv 1907.09575), serves only dist.go's per-triple DistPlan
// API. No count path runs it: a replica holds the whole CSR, so the
// tiling would save no memory, and each apex block K rescans block I.

// scratchPool recycles the per-task stamp arrays; tasks are coarse,
// so pool churn is negligible next to the intersection work.
var scratchPool sync.Pool

// shortList is the forward-list length up to which countTriple probes a
// middle's whole list against the marks instead of first cutting it to
// the apex block with two binary searches (BenchmarkCountFragments).
const shortList = 32

func getScratch(universe int) *intersectScratch {
	if sc, ok := scratchPool.Get().(*intersectScratch); ok && len(sc.mark) >= universe {
		return sc
	}
	return newIntersectScratch(universe)
}

// AutoGrid returns the number of row ranges the counting path cuts for
// the given number of parallel units: four per unit, so that a dynamic
// schedule evens out the wedge estimate's error, capped at the
// rank-space size.
func AutoGrid(units, ranks int) int { return max(1, min(4*max(units, 1), ranks)) }

// CountParallel2D counts the view's triangles with Forward.Count;
// workers <= 0 means GOMAXPROCS. The count always equals the size of
// SetKernel's set.
func CountParallel2D(view *graph.Sub, workers int) int {
	n, _ := NewForward(view).Count(context.Background(), workers)
	return n
}

// Count counts the CSR's triangles on AutoGrid(workers) row ranges run
// by par.ForEachContext; workers <= 0 means GOMAXPROCS. Once ctx is
// done no further range begins and ctx's error is returned. When ctx
// carries a span (obs.ContextWithSpan), each range runs under a
// "triangle.rows" child holding its bounds lo and hi and its count. The
// total is the same for every worker count.
func (fw *Forward) Count(ctx context.Context, workers int) (int, error) {
	w := par.Workers(workers)
	cuts := fw.RowCuts(AutoGrid(w, fw.Ranks()))
	counts := make([]int, len(cuts)-1)
	err := fw.eachRange(ctx, w, cuts, func(i int, sc *intersectScratch) int {
		counts[i] = countRows(fw.rc.off, fw.rc.nbr, cuts[i], cuts[i+1], sc)
		return counts[i]
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

// eachRange is the schedule Count and Set share: it runs task(i, sc)
// for each row range [cuts[i], cuts[i+1]) on par.ForEachContext with up
// to w workers, handing each task pooled scratch that spans the rank
// space. When ctx carries a span, each range runs under a
// "triangle.rows" child holding its bounds and the count task returns.
func (fw *Forward) eachRange(ctx context.Context, w int, cuts []int32, task func(i int, sc *intersectScratch) int) error {
	sp := obs.SpanFromContext(ctx)
	return par.ForEachContext(ctx, w, len(cuts)-1, func(i int) {
		child := sp.Child("triangle.rows")
		sc := getScratch(fw.rc.ranks())
		n := task(i, sc)
		scratchPool.Put(sc)
		child.AttrInt("lo", int(cuts[i])).AttrInt("hi", int(cuts[i+1])).AttrInt("count", n).End()
	})
}

// CountRows counts the triangles whose lowest-rank vertex lies in the
// row range [lo, hi), where 0 <= lo <= hi <= Ranks. It is the task of
// every count path: summed over any cut of [0, Ranks), it gives the
// graph's triangle count.
func (fw *Forward) CountRows(lo, hi int32) int {
	sc := getScratch(fw.rc.ranks())
	defer scratchPool.Put(sc)
	return countRows(fw.rc.off, fw.rc.nbr, lo, hi, sc)
}

// RowCuts splits the rank space into p contiguous row ranges balanced by
// wedge work: p+1 ascending cuts with cuts[0] = 0 and cuts[p] = Ranks,
// range i being [cuts[i], cuts[i+1]). Every range holds at least one
// row, so p < 1 is clamped to 1 and p beyond the rank-space size down to
// it. The cuts are deterministic in (graph, p). The first call builds
// the wedge prefix they are read from; later calls, at any p, reuse it.
func (fw *Forward) RowCuts(p int) []int32 {
	fw.wedgeOnce.Do(func() { fw.wedge = wedgePrefix(fw.rc) })
	return cutPrefix(fw.wedge, max(1, min(p, fw.rc.ranks())))
}

// wedgePrefix returns w with w[r] the estimated work of rows [0, r): a
// row costs its forward list (marked once) plus each middle's list
// (probed), and one per list, so that empty rows still weigh something.
// Forward lists are O(sqrt(m)) long, so unlike raw degrees this estimate
// cannot be dominated by one hub.
func wedgePrefix(rc rankCSR) []int64 {
	w := make([]int64, rc.ranks()+1)
	for r := 0; r < rc.ranks(); r++ {
		fv := rc.fwd(r)
		c := int64(len(fv)) + 1
		for _, m := range fv {
			c += int64(rc.off[m+1]-rc.off[m]) + 1
		}
		w[r+1] = w[r] + c
	}
	return w
}

// cutPrefix cuts the rows of the work prefix w into p contiguous ranges,
// 1 <= p <= max(1, len(w)-1). Cut b is the first row at which the prefix
// reaches b/p of the total work, moved just far enough to leave every
// range at least one row.
func cutPrefix(w []int64, p int) []int32 {
	ranks := len(w) - 1
	cuts := make([]int32, p+1)
	for b := 1; b < p; b++ {
		target := w[ranks] * int64(b) / int64(p)
		r := sort.Search(ranks, func(i int) bool { return w[i] >= target })
		cuts[b] = int32(min(max(r, int(cuts[b-1])+1), ranks-(p-b)))
	}
	cuts[p] = int32(ranks)
	return cuts
}

// countRows is the row-range task: it counts the triangles whose
// lowest-rank vertex lies in [lo, hi) of the whole forward CSR
// (off, nbr), indexed by absolute rank. Each row's forward
// list is marked once; each middle's list is probed against the marks,
// or galloped through when it is gallopRatio times longer than the apex
// candidates left above the middle. A middle's list holds only ranks
// above the middle, so every marked rank it holds closes a triangle
// counted nowhere else. sc must span the rank space.
func countRows(off, nbr []int32, lo, hi int32, sc *intersectScratch) int {
	var buf []int32
	n := 0
	for r := lo; r < hi; r++ {
		fv := nbr[off[r]:off[r+1]]
		if len(fv) < 2 {
			continue
		}
		sc.markAll(fv)
		for i, m := range fv[:len(fv)-1] {
			fu := nbr[off[m]:off[m+1]]
			if apex := fv[i+1:]; len(fu) >= len(apex)*gallopRatio {
				buf = intersectGallop(apex, fu, buf[:0])
				n += len(buf)
				continue
			}
			for _, x := range fu {
				if sc.marked(x) {
					n++
				}
			}
		}
	}
	return n
}

// rangeOf returns the [lo, hi) index window of the ranks in s falling
// inside [from, to). s is strictly ascending; a window reaching either
// end of s skips that end's binary search.
func rangeOf(s []int32, from, to int32) (int, int) {
	lo, hi := 0, len(s)
	if lo < hi && s[0] < from {
		lo, _ = slices.BinarySearch(s, from)
	}
	if lo < hi && s[hi-1] >= to {
		n, _ := slices.BinarySearch(s[lo:], to)
		hi = lo + n
	}
	return lo, hi
}

// countTriple is the block-triple task: it counts the triangles whose
// lowest-rank vertex lies in fi's rows (block t.I of tl), middle vertex
// in block t.J — whose rows fj holds — and apex in block t.K. Callers
// guarantee the fragments cover those blocks and that sc spans tl.Ranks.
// It is countRows' loop restricted to the triple's three blocks.
// A middle's list only holds ranks above the middle, so every marked
// rank it contains is a valid apex: J == K needs no special case.
func countTriple(tl Tiling, t BlockTriple, fi, fj *Fragment, sc *intersectScratch) int {
	jLo, jHi := tl.Block(t.J)
	kLo, kHi := tl.Block(t.K)
	var buf []int32
	n := 0
	for r := fi.Lo; r < fi.Hi; r++ {
		fv := fi.Fwd(r)
		// The list is ascending, so its endpoints tell in O(1) whether
		// it can hold a middle below jHi and a distinct apex from kLo.
		if len(fv) < 2 || fv[0] >= jHi || fv[len(fv)-1] < kLo {
			continue
		}
		mLo, mHi := rangeOf(fv, jLo, jHi)
		aLo, aHi := rangeOf(fv[mLo:], kLo, kHi)
		if mLo == mHi || aLo == aHi {
			continue
		}
		apex := fv[mLo+aLo : mLo+aHi]
		sc.markAll(apex)
		for _, m := range fv[mLo:mHi] {
			fu := fj.Fwd(m)
			if len(fu) == 0 || fu[0] >= kHi || fu[len(fu)-1] < kLo {
				continue
			}
			if len(fu) > shortList {
				// Cutting a long list to block K costs two binary
				// searches; a vastly longer cut is galloped through.
				uLo, uHi := rangeOf(fu, kLo, kHi)
				fu = fu[uLo:uHi]
				if len(fu) >= len(apex)*gallopRatio {
					buf = intersectGallop(apex, fu, buf[:0])
					n += len(buf)
					continue
				}
			}
			for _, x := range fu {
				if sc.marked(x) {
					n++
				}
			}
		}
	}
	return n
}
