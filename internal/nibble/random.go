package nibble

import (
	"context"
	"sync"

	"dexpander/internal/graph"
	"dexpander/internal/par"
	"dexpander/internal/rng"
)

// SampleStart draws a starting vertex from the view's degree distribution
// psi_V and a scale b in [1, Ell] with Pr[b=i] proportional to 2^-i,
// exactly as RandomNibble specifies. The vertex lookup binary-searches
// the view's cached degree prefix instead of scanning the member set, so
// one draw costs O(log n) after the view's first use.
func SampleStart(view *graph.Sub, pr Params, r *rng.RNG) (v, b int) {
	total := view.TotalVol()
	// Degree-proportional vertex sample; float rounding overshoot clamps
	// to the last member, as the scan-based sampler did.
	x := int64(r.Float64() * float64(total))
	v = view.VertexAtVolume(x)
	// Pr[b=i] = 2^-i / (1 - 2^-ell).
	denom := 1 - 1/float64(int64(1)<<uint(pr.Ell))
	u := r.Float64() * denom
	cum := 0.0
	for i := 1; i <= pr.Ell; i++ {
		cum += 1 / float64(int64(1)<<uint(i))
		if u < cum {
			return v, i
		}
	}
	return v, pr.Ell
}

// RandomNibble runs ApproximateNibble from a random degree-weighted start
// with a random scale (Appendix A.3).
func RandomNibble(view *graph.Sub, pr Params, r *rng.RNG) *Result {
	v, b := SampleStart(view, pr, r)
	return ApproximateNibble(view, pr, v, b)
}

// ParallelResult is the outcome of one ParallelNibble invocation.
type ParallelResult struct {
	// C is the union cut U_{i*} (empty on overflow or no findings).
	C *graph.VSet
	// Instances is the number k of RandomNibble instances run.
	Instances int
	// Overflowed reports whether some edge participated in more than W
	// instances, forcing the empty result (Lemma 7's abort condition).
	Overflowed bool
	// MaxOverlap is the maximum per-edge participation observed.
	MaxOverlap int
}

// overlapScratch pools the per-edge participation counters of
// ParallelNibble's seed-order merge: a dense count array indexed by edge
// id plus the touched list that lets release() restore it to all-zero in
// O(touched) instead of O(m). Replaces the per-call map, so the merge of
// every trial round in the partition loop is allocation-free at steady
// state.
type overlapScratch struct {
	count   []int32
	touched []int
}

var overlapPool = sync.Pool{New: func() any { return new(overlapScratch) }}

func acquireOverlapScratch(m int) *overlapScratch {
	sc := overlapPool.Get().(*overlapScratch)
	if cap(sc.count) < m {
		sc.count = make([]int32, m)
	}
	sc.count = sc.count[:m]
	sc.touched = sc.touched[:0]
	return sc
}

// bump increments edge e's participation count and returns the new value.
func (sc *overlapScratch) bump(e int) int {
	if sc.count[e] == 0 {
		sc.touched = append(sc.touched, e)
	}
	sc.count[e]++
	return int(sc.count[e])
}

func (sc *overlapScratch) release() {
	for _, e := range sc.touched {
		sc.count[e] = 0
	}
	overlapPool.Put(sc)
}

// ParallelNibble runs k = InstanceCount simultaneous RandomNibbles and
// merges a prefix of their outputs (Appendix A.4): if any edge
// participates in more than W instances the result is empty; otherwise
// the largest prefix U_{i*} of the union with Vol <= (23/24) Vol(V) is
// returned.
//
// The k instances really do run in parallel here — they are independent
// given the view, exactly the independence the paper's A.4 scheduling
// exploits. Determinism is preserved for any GOMAXPROCS by splitting the
// sequential schedule into three phases: all k (start, scale) pairs are
// drawn from r first (the same RNG consumption order as a serial loop,
// since the walks themselves never touch r), the trials then execute on a
// worker pool into their seed-order slots, and the overlap counts and
// union prefix merge in seed order. The output is bit-identical to the
// serial loop for every worker count.
func ParallelNibble(view *graph.Sub, pr Params, r *rng.RNG) *ParallelResult {
	starts := drawStarts(nil, view, pr, pr.InstanceCount(view), r)
	walks, _, _ := runWalks(view, pr, starts, par.Workers(pr.Workers), approximateWalk)
	return mergeRound(view, pr, walks)
}

// approximateWalk is ApproximateNibble as a PartitionWalk walk; it
// cannot fail.
func approximateWalk(view *graph.Sub, pr Params, v, b int) (*Result, error) {
	return ApproximateNibble(view, pr, v, b), nil
}

// walkStart is one RandomNibble's (start vertex, scale) pair.
type walkStart struct{ v, b int }

// drawStarts appends k (start, scale) pairs drawn from r to dst: the
// draws of one ParallelNibble round, in seed order.
func drawStarts(dst []walkStart, view *graph.Sub, pr Params, k int, r *rng.RNG) []walkStart {
	for range k {
		v, b := SampleStart(view, pr, r)
		dst = append(dst, walkStart{v, b})
	}
	return dst
}

// runWalks runs walk from every start on up to workers goroutines, each
// walk into its own slot. The walks never touch an RNG, so the slots do
// not depend on the worker count. A failed walk stops the hand-out, and
// the walks already handed out finish; since slots are handed out in
// order, every slot below the lowest failing one holds its result.
// runWalks returns that slot and its error, or len(starts) and nil.
func runWalks(view *graph.Sub, pr Params, starts []walkStart, workers int, walk func(sub *graph.Sub, pr Params, v, b int) (*Result, error)) ([]*Result, int, error) {
	results := make([]*Result, len(starts))
	errs := make([]error, len(starts))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// ForEachContext's error is the cancel below; errs holds its cause.
	_ = par.ForEachContext(ctx, workers, len(starts), func(i int) {
		if results[i], errs[i] = walk(view, pr, starts[i].v, starts[i].b); errs[i] != nil {
			cancel()
		}
	})
	for i, err := range errs {
		if err != nil {
			return results, i, err
		}
	}
	return results, len(starts), nil
}

// mergeRound is ParallelNibble's seed-order merge of one round's walk
// results: identical to accumulating inside a serial loop.
func mergeRound(view *graph.Sub, pr Params, results []*Result) *ParallelResult {
	res := &ParallelResult{C: graph.NewVSet(view.Base().N()), Instances: len(results)}
	overlap := acquireOverlapScratch(view.Base().M())
	defer overlap.release()
	for _, one := range results {
		for _, e := range one.PStar {
			if c := overlap.bump(e); c > res.MaxOverlap {
				res.MaxOverlap = c
			}
		}
	}
	if res.MaxOverlap > pr.W {
		res.Overflowed = true
		return res
	}
	z := 23.0 / 24.0 * float64(view.TotalVol())
	union := graph.NewVSet(view.Base().N())
	best := graph.NewVSet(view.Base().N())
	for _, one := range results {
		union.AddAll(one.C)
		if float64(view.Vol(union)) <= z {
			best = union.Clone()
		}
	}
	res.C = best
	return res
}
