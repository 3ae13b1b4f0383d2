package nibble

import (
	"dexpander/internal/graph"
	"dexpander/internal/par"
)

// detStarts is the number of deterministic start vertices one
// DetSparseCut peel iteration probes: the members sitting at odd
// multiples of Vol(V)/(2*detStarts) in the degree-prefix order. The
// schedule is the derandomized stand-in for SampleStart's degree-weighted
// draw — high-degree regions get proportionally many probe positions —
// and every scale b = 1..Ell is tried for every start instead of the
// geometric scale draw.
const detStarts = 8

// DetSparseCut is the derandomized Theorem 3 interface: the same
// Partition-style peeling loop as SparseCut, with both of the randomized
// ingredients replaced. Start vertices and walk scales come from the
// fixed schedule above (the underlying Nibble sweep is already
// deterministic given a start and a scale), and the returned cut of each
// iteration is selected greedily — lowest conductance, then largest
// volume, then lexicographically smallest member set — instead of first
// past the post. The accumulated cut is gated on TransferH(phi): a peel
// that would push the union's conductance above the Theorem 3 output
// bound stops the loop, so the caller's eps-charging argument holds
// deterministically, not just w.h.p.
//
// The result is a pure function of (view, phi, preset): no RNG and no
// map iteration. Each iteration's probes run on par.Workers(pr.Workers)
// goroutines — GOMAXPROCS, since NewParams leaves Workers at 0, whatever
// core.Options.Workers says — and are reduced in schedule order, so
// callers get bit-identical cuts for every process, worker count, and
// GOMAXPROCS.
func DetSparseCut(view *graph.Sub, phi float64, preset Preset) *PartitionResult {
	phiP := PartitionPhi(view, phi, preset)
	pr := NewParams(view, phiP, preset)
	bound := TransferH(view, phi, preset)
	res := &PartitionResult{C: graph.NewVSet(view.Base().N())}
	s := pr.Iterations(view)
	totalVol := float64(view.TotalVol())
	if totalVol == 0 {
		return res
	}
	w := view.Members().Clone()
	for i := 1; i <= s; i++ {
		res.Iterations = i
		sub := view.Restrict(w)
		best := detNibble(sub, pr)
		if best == nil {
			// Deterministic schedule: re-running it on the same remaining
			// set returns the same nothing, so stop now (the randomized
			// loop's EmptyStop patience buys fresh draws; here there are
			// none).
			break
		}
		union := res.C.Clone()
		union.AddAll(best)
		if view.Conductance(union) > bound {
			break
		}
		res.C = union
		w.RemoveAll(best)
		if float64(view.Vol(w)) <= 47.0/48.0*totalVol {
			break
		}
	}
	if !res.C.Empty() {
		res.Conductance = view.Conductance(res.C)
		res.Balance = view.Balance(res.C)
	}
	return res
}

// detNibble runs the deterministic (start, scale) schedule on the view
// and returns the greedily best non-empty cut, or nil when every probe
// comes back empty. The probes are listed first and then run on up to
// par.Workers(pr.Workers) goroutines, each into its own slot in schedule
// order; a slot keeps only the probe's cut. The reduction walks the
// slots in schedule order with a total order, so the choice does not
// depend on the worker count.
func detNibble(view *graph.Sub, pr Params) *graph.VSet {
	total := view.TotalVol()
	if total == 0 || view.Members().Empty() {
		return nil
	}
	var probes []walkStart
	prev := -1
	for j := 0; j < detStarts; j++ {
		v := view.VertexAtVolume(total * int64(2*j+1) / int64(2*detStarts))
		if v == prev {
			continue // volume positions collapse onto one heavy vertex
		}
		prev = v
		for b := 1; b <= pr.Ell; b++ {
			probes = append(probes, walkStart{v, b})
		}
	}
	cuts := make([]*graph.VSet, len(probes))
	par.ForEach(par.Workers(pr.Workers), len(probes), func(i int) {
		if r := Nibble(view, pr, probes[i].v, probes[i].b); !r.Empty() {
			cuts[i] = r.C
		}
	})
	var best *graph.VSet
	var bestPhi float64
	var bestVol int64
	for _, c := range cuts {
		if c == nil {
			continue
		}
		phiC := view.Conductance(c)
		volC := view.Vol(c)
		if best == nil || phiC < bestPhi ||
			(phiC == bestPhi && (volC > bestVol ||
				(volC == bestVol && lexLess(c, best)))) {
			best, bestPhi, bestVol = c, phiC, volC
		}
	}
	return best
}

// lexLess orders vertex sets by their sorted member lists — the final,
// total tie-break of the greedy selection.
func lexLess(a, b *graph.VSet) bool {
	am, bm := a.Members(), b.Members()
	for i := 0; i < len(am) && i < len(bm); i++ {
		if am[i] != bm[i] {
			return am[i] < bm[i]
		}
	}
	return len(am) < len(bm)
}
