package core

import (
	"context"
	"math"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/par"
	"dexpander/internal/rng"
)

// decomposeCMPS runs the "par-cmps" backend, the simple near-optimal
// parallel decomposition in the spirit of Chen–Meierhans–Probst
// Gutenberg–Saranurak (arXiv 2410.13451): expander decomposition by
// repeated low-diameter clustering alone. Each round runs the
// exponential-shift clustering at beta = eps/(3*depth) on every live
// component in parallel; a component the clustering leaves whole is
// final, otherwise its inter-cluster edges are removed and the pieces
// recurse. The recursion is boundary-linked exactly the way the paper's
// machinery already provides: removed edges become implicit self-loops
// under graph.Sub, so every recursive subproblem keeps the original
// degrees and each boundary edge keeps charging volume to both former
// endpoints.
//
// No Nibble walks, no conductance ladder — one clustering sweep per
// round, which is why this is the fast host path (CostHint below both
// Theorem 1 backends). The quality trade: components are low-diameter
// rather than conductance-certified, so Quality.MinPhiLower is whatever
// Evaluate measures, not a construction guarantee. The eps side IS
// guaranteed, deterministically: each round's expected removals are at
// most 2*beta*m (Lemma 12), the depth cap bounds the rounds, and a hard
// removal budget of eps*m refuses any round that would overdraw it
// (the component stays final instead) — so EpsAchieved <= Eps always,
// not just in expectation.
func decomposeCMPS(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, congest.Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, congest.Stats{}, err
	}
	g := view.Base()
	m := float64(view.UsableEdgeCount())
	if m == 0 {
		labels, count := view.Components()
		return &Decomposition{Labels: labels, Count: count, FinalMask: make([]bool, g.M())}, congest.Stats{}, nil
	}
	// O(log m) clustering rounds; beta splits the eps/3 budget the same
	// way Phase 1 does (Theorem 4's w.h.p. bound is 3*beta*|E|).
	d := int(math.Ceil(math.Log2(m))) + 1
	if d < 1 {
		d = 1
	}
	if opt.MaxPhase1Depth > 0 && d > opt.MaxPhase1Depth {
		d = opt.MaxPhase1Depth
	}
	beta := (opt.Eps / 3) / float64(d)
	budget := int64(opt.Eps * m)

	mask := aliveMask(view)
	root := rng.New(opt.Seed)
	workers := par.Workers(opt.Workers)
	dec := &Decomposition{}
	tasks := splitComponents(graph.NewSub(g, view.Members(), mask), view.Members())
	var removedTotal int64
	var seq uint64
	for depth := 0; depth < d && len(tasks) > 0; depth++ {
		dec.Phase1Depth = depth + 1
		// Seeds drawn from the shared counter in task order before
		// dispatch, private mask copies per task, merge in task order —
		// the same discipline as Decompose, so the output is bit-identical
		// for every worker count.
		seeds := make([]uint64, len(tasks))
		for i := range tasks {
			seq++
			seeds[i] = root.Fork(seq).Uint64()
		}
		type clusterOut struct {
			log     removalLog
			removed int64
			comps   []*graph.VSet
			whole   bool
		}
		outs := make([]clusterOut, len(tasks))
		if err := par.ForEachContext(ctx, workers, len(tasks), func(i int) {
			u := tasks[i]
			priv := acquireMask(mask)
			defer releaseMask(priv)
			sub := graph.NewSub(g, view.Members(), *priv).Restrict(u)
			pr := ldd.NewParams(u.Len(), beta, lddPreset(opt.Preset))
			res := ldd.Clustering(sub, pr, rng.New(seeds[i]))
			if res.Count <= 1 {
				outs[i].whole = true
				return
			}
			o := &outs[i]
			o.removed = o.log.removeInterLabel(g, *priv, u, res.Labels)
			o.comps = splitComponents(graph.NewSub(g, view.Members(), *priv), u)
		}); err != nil {
			return nil, congest.Stats{}, err
		}
		var next []*graph.VSet
		for i := range outs {
			o := &outs[i]
			if o.whole || o.removed == 0 {
				continue // single cluster: final
			}
			if removedTotal+o.removed > budget {
				// Hard budget: this split would overdraw eps*m, so the
				// component is final as-is. Applied in task order, so the
				// guard is deterministic too.
				continue
			}
			o.log.applyTo(mask)
			removedTotal += o.removed
			next = append(next, o.comps...)
		}
		tasks = next
	}

	final := graph.NewSub(g, view.Members(), mask)
	dec.Labels, dec.Count = final.Components()
	dec.FinalMask = mask
	dec.Removed1 = removedTotal
	dec.CutEdges = removedTotal
	dec.EpsAchieved = float64(removedTotal) / m
	view.Members().ForEach(func(v int) {
		if final.AliveDeg(v) == 0 {
			dec.Singletons++
		}
	})
	return dec, congest.Stats{}, nil
}
