package nibble

import (
	"fmt"

	"dexpander/internal/graph"
	"dexpander/internal/par"
	"dexpander/internal/rng"
)

// PartitionResult is the outcome of Partition (Appendix A.4) or of the
// Theorem 3 wrapper.
type PartitionResult struct {
	// C is the accumulated cut (union of all ParallelNibble outputs up
	// to the stopping iteration); may be empty.
	C *graph.VSet
	// Iterations is the number of ParallelNibble rounds executed.
	Iterations int
	// Conductance is Phi(C) in the input view, or 0 for empty C.
	Conductance float64
	// Balance is bal(C) in the input view.
	Balance float64
}

// Empty reports whether no cut was found.
func (r *PartitionResult) Empty() bool { return r.C == nil || r.C.Empty() }

// Partition implements Algorithm Partition(G, phi, p): repeatedly run
// ParallelNibble on the remaining graph G{W_i}, peeling each returned cut,
// until the remaining volume drops to (47/48) Vol(V) or the iteration
// budget s is exhausted. Lemma 8 gives its guarantees: Vol(C) <=
// (47/48) Vol(V); Phi(C) = O(phi log n) when non-empty; and for any
// target S with Vol(S) <= Vol(V)/2 and Phi(S) <= f(phi), w.h.p. either
// Vol(C) >= Vol(V)/48 or Vol(C ∩ S) >= Vol(S)/2.
//
// An empty iteration leaves G{W_i} unchanged, so the walks of the
// iterations after it depend only on their own draws from r. Partition
// therefore runs iterations speculatively in batches of
// max(1, workers/k), capped by the iterations left and by what remains
// of the EmptyStop patience: it draws every start of the batch from r in
// serial order, keeping a copy of r after each iteration's draws, runs
// all the batch's walks on one worker pool, and merges them iteration by
// iteration. At the first iteration that peels a cut or ends the loop,
// the later walks are discarded and r is rewound to that iteration's
// copy. The cut, the iteration count and the caller's RNG state are
// bit-identical to the one-iteration-at-a-time loop for every worker
// count.
//
// Partition skips every walk on a view where a certificate proves that no
// sweep prefix can pass ApproximateNibble's conductance test
// (noSweepPasses at acceptTau: spectral.Lambda2Above's λ2 bound, or
// spectral.ConductanceAbove's flow bound where that fails): each walk
// would return no cut, so no iteration peels and every one is empty. The
// loop still runs, with a walk that returns no cut in place of
// ApproximateNibble, so it draws the same starts and stops at the same
// iteration: the cut, the iteration count and the caller's RNG state are
// the ones the walks would give.
func Partition(view *graph.Sub, pr Params, r *rng.RNG) *PartitionResult {
	walk := approximateWalk
	if noSweepPasses(view, pr, pr.acceptTau(view)) {
		walk = noCutWalk
	}
	res, _ := PartitionWalk(view, pr, r, walk)
	return res
}

// noCutWalk is the walk Partition runs where noSweepPasses proved that
// ApproximateNibble returns no cut from any start.
func noCutWalk(_ *graph.Sub, pr Params, _, _ int) (*Result, error) {
	return &Result{C: graph.NewVSet(0), Steps: pr.T0}, nil
}

// PartitionWalk is Partition with every ApproximateNibble instance run
// through walk, which executes the instance from (v, b) on the remaining
// view sub. A distributed caller passes a walk that runs the instance in
// the CONGEST simulator; the loop's guarantees hold for a walk that
// implements ApproximateNibble. The first failing walk of the serial
// loop, in (iteration, instance) order, ends the loop, and its error is
// returned with the iteration number.
func PartitionWalk(view *graph.Sub, pr Params, r *rng.RNG, walk func(sub *graph.Sub, pr Params, v, b int) (*Result, error)) (*PartitionResult, error) {
	n := view.Base().N()
	res := &PartitionResult{C: graph.NewVSet(n)}
	s := pr.Iterations(view)
	totalVol := float64(view.TotalVol())
	w := view.Members().Clone()
	sub := view // the remaining graph G{W_i}, rebuilt only after a peel
	workers := par.Workers(pr.Workers)
	emptyStreak := 0
loop:
	for res.Iterations < s {
		k := pr.InstanceCount(sub)
		batch := min(max(1, workers/k), s-res.Iterations)
		if pr.EmptyStop > 0 {
			batch = min(batch, pr.EmptyStop-emptyStreak)
		}
		starts := make([]walkStart, 0, batch*k)
		after := make([]rng.RNG, batch) // r after each iteration's draws
		for j := range after {
			starts = drawStarts(starts, sub, pr, k, r)
			after[j] = *r
		}
		walks, failed, err := runWalks(sub, pr, starts, workers, walk)
		for j := range after {
			if failed < (j+1)*k {
				return nil, fmt.Errorf("nibble: partition iteration %d: %w", res.Iterations+1, err)
			}
			res.Iterations++
			pn := mergeRound(sub, pr, walks[j*k:(j+1)*k])
			if pn.C.Empty() {
				emptyStreak++
				if pr.EmptyStop > 0 && emptyStreak >= pr.EmptyStop {
					*r = after[j]
					break loop
				}
				continue
			}
			// The peel changes the graph the rest of the batch drew for:
			// discard those walks and rewind r to the serial loop's state.
			*r = after[j]
			emptyStreak = 0
			res.C.AddAll(pn.C)
			// After the first peel sub aliases w, so the peel must come
			// after sub's last use; the next batches run on a view
			// restricted to what remains.
			w.RemoveAll(pn.C)
			if float64(view.Vol(w)) <= 47.0/48.0*totalVol {
				break loop
			}
			sub = view.Restrict(w)
			break
		}
	}
	if !res.C.Empty() {
		res.Conductance = view.Conductance(res.C)
		res.Balance = view.Balance(res.C)
	}
	return res, nil
}

// SparseCut is the Theorem 3 interface: given a conductance target phi,
// it returns a cut C such that (a) if Phi(G) <= phi then w.h.p. C has
// balance >= min(b/2, 1/48) — b the balance of the most balanced cut of
// conductance <= phi — and conductance at most TransferH(phi); (b) if
// Phi(G) > phi, C is empty or has conductance at most TransferH(phi).
//
// It is a re-parameterization of Partition: the inner run uses
// phi_p = PartitionPhi(phi) (FInv under the Paper preset, so that cuts of
// conductance phi meet Partition's f(phi_p) precondition), and the output
// conductance bound composes to TransferH(phi) = CCut * W * phi_p.
func SparseCut(view *graph.Sub, phi float64, preset Preset, r *rng.RNG) *PartitionResult {
	phiP := PartitionPhi(view, phi, preset)
	return Partition(view, NewParams(view, phiP, preset), r)
}
