package ldd

import (
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// Decompose runs the full LowDiamDecomposition(beta) of Theorem 4
// sequentially: build the density partition V = V_D ∪ V_S, run
// Clustering(beta), then cut only the inter-cluster edges with at least
// one endpoint in V_S. Components of the result are the connected
// components after those cuts. W.h.p. each component has diameter
// O(log^2 n / beta^2) and at most 3*beta*|E| edges are cut (the paper
// re-parameterizes beta' = beta/3 to absorb the 3).
func Decompose(view *graph.Sub, pr Params, r *rng.RNG) *Result {
	vdPrime, _ := DensityPartition(view, pr)
	vd := BuildVD(view, vdPrime, pr)
	vs := VSFromVD(view, vd)
	clusters := Clustering(view, pr, r)
	return cutWithVDVS(view, clusters, vd, vs)
}

func cutWithVDVS(view *graph.Sub, clusters *Result, vd, vs *graph.VSet) *Result {
	g := view.Base()
	// Kill inter-cluster edges with an endpoint in VS; then components
	// of the surviving subgraph are the output parts.
	mask := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		if u == v {
			mask[e] = true
			continue
		}
		sameCluster := clusters.Labels[u] == clusters.Labels[v]
		if sameCluster || (vd.Has(u) && vd.Has(v)) {
			mask[e] = true
		}
	}
	after := graph.NewSub(g, view.Members(), mask)
	labels, count := after.Components()
	res := &Result{Labels: labels, Count: count, VD: vd, VS: vs}
	res.CutEdges = view.InterComponentEdges(labels)
	return res
}

// CutFraction returns CutEdges as a fraction of the view's usable edges.
func (r *Result) CutFraction(view *graph.Sub) float64 {
	m := view.UsableEdgeCount()
	if m == 0 {
		return 0
	}
	return float64(r.CutEdges) / float64(m)
}

// EdgeCutProbability estimates, over the given number of independent
// trials, the per-edge cut frequency of plain Clustering(beta) — the
// quantity Lemma 12 bounds by 2*beta. It returns the maximum frequency
// over edges and the mean cut fraction.
func EdgeCutProbability(view *graph.Sub, pr Params, trials int, seed uint64) (maxFreq, meanFrac float64) {
	g := view.Base()
	cutCount := make([]int, g.M())
	var totalCut int64
	root := rng.New(seed)
	for i := 0; i < trials; i++ {
		res := Clustering(view, pr, root.Fork(uint64(i)))
		totalCut += res.CutEdges
		for e := 0; e < g.M(); e++ {
			if !view.Usable(e) || g.IsLoop(e) {
				continue
			}
			u, v := g.EdgeEndpoints(e)
			if res.Labels[u] != res.Labels[v] {
				cutCount[e]++
			}
		}
	}
	usable := 0
	for e := 0; e < g.M(); e++ {
		if view.Usable(e) && !g.IsLoop(e) {
			usable++
			if f := float64(cutCount[e]) / float64(trials); f > maxFreq {
				maxFreq = f
			}
		}
	}
	if usable > 0 {
		meanFrac = float64(totalCut) / float64(trials) / float64(usable)
	}
	return maxFreq, meanFrac
}
