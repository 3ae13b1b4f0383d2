package core

import (
	"context"
	"math"

	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/obs"
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
func decomposeCMPS(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, error) {
	m, done, err := start(ctx, view, opt)
	if done != nil || err != nil {
		return done, err
	}
	// O(log m) clustering rounds; beta splits the eps/3 budget the same
	// way Phase 1 does (Theorem 4's w.h.p. bound is 3*beta*|E|).
	s := newState(view, opt, int(math.Ceil(math.Log2(m)))+1)
	budget := int64(opt.Eps * m)
	g := view.Base()
	dec := &Decomposition{}
	tasks := splitComponents(s.sub(s.mask), view.Members())
	sp := obs.SpanFromContext(ctx)
	for len(tasks) > 0 && dec.Phase1Depth < s.d {
		dec.Phase1Depth++
		seeds := s.drawSeeds(len(tasks))
		rsp := sp.Child("core.cmps.round").AttrInt("round", dec.Phase1Depth).AttrInt("tasks", len(tasks))
		outs, err := s.stage(ctx, rsp, "core.cmps.task", tasks,
			func(i int, view *graph.Sub, mask []bool) (r result, err error) {
				u := tasks[i]
				res := ldd.Clustering(view, ldd.NewParams(u.Len(), s.beta, lddPreset(opt.Preset)), rng.New(seeds[i]))
				if res.Count > 1 {
					r.removed = r.log.removeInterLabel(g, mask, u, res.Labels)
					r.comps = splitComponents(s.sub(mask), u)
				}
				return r, nil
			})
		if err != nil {
			return nil, err
		}
		var next []*graph.VSet
		for i := range outs {
			o := &outs[i]
			// A component the clustering leaves whole is final. So is one
			// whose split would overdraw the eps*m budget; the guard runs
			// in task order, so it is deterministic too.
			if o.removed == 0 || dec.Removed1+o.removed > budget {
				continue
			}
			o.log.applyTo(s.mask)
			dec.Removed1 += o.removed
			next = append(next, o.comps...)
		}
		tasks = next
	}
	return dec.finish(view, s.mask), nil
}
