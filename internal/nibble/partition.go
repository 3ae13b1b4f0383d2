package nibble

import (
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
func Partition(view *graph.Sub, pr Params, r *rng.RNG) *PartitionResult {
	n := view.Base().N()
	res := &PartitionResult{C: graph.NewVSet(n)}
	s := pr.Iterations(view)
	totalVol := float64(view.TotalVol())
	w := view.Members().Clone()
	workers := par.Workers(pr.Workers)
	emptyStreak := 0
loop:
	for res.Iterations < s {
		sub := view.Restrict(w)
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
		walks := runWalks(sub, pr, starts, workers)
		for j := range after {
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
			// sub (which aliases w) is dead from here on: the peel must
			// come after its last use, and the next batch restricts the
			// view afresh.
			w.RemoveAll(pn.C)
			if float64(view.Vol(w)) <= 47.0/48.0*totalVol {
				break loop
			}
			break
		}
	}
	if !res.C.Empty() {
		res.Conductance = view.Conductance(res.C)
		res.Balance = view.Balance(res.C)
	}
	return res
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
