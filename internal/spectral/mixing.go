package spectral

import (
	"math"

	"dexpander/internal/graph"
)

// MixingTime returns the smallest t <= cap such that the lazy walk from
// src is within eps of stationarity in the relative-pointwise sense used
// in the distributed literature:
//
//	max_u |p_t(u) - pi(u)| <= eps * pi(u),  pi(u) = deg(u)/Vol(S).
//
// It returns cap+1 if the walk has not mixed within cap steps (e.g. on a
// disconnected view).
func MixingTime(view *graph.Sub, src int, eps float64, cap int) int {
	g := view.Base()
	total := float64(view.TotalVol())
	if total == 0 {
		return 0
	}
	p := Chi(g.N(), src)
	for t := 0; t <= cap; t++ {
		if mixed(view, p, total, eps) {
			return t
		}
		p = Step(view, p)
	}
	return cap + 1
}

func mixed(view *graph.Sub, p Dist, total, eps float64) bool {
	g := view.Base()
	ok := true
	view.Members().ForEach(func(v int) {
		pi := float64(g.Deg(v)) / total
		if pi == 0 {
			return
		}
		if math.Abs(p[v]-pi) > eps*pi {
			ok = false
		}
	})
	return ok
}

// ConductanceSweepUpper estimates an upper bound on the view's
// conductance by running a short walk from each given source and taking
// the best sweep cut seen. It complements CheegerLower: together they
// bracket Phi.
func ConductanceSweepUpper(view *graph.Sub, sources []int, steps int) float64 {
	best := math.Inf(1)
	total := view.TotalVol()
	n := view.Base().N()
	for _, src := range sources {
		dists := Walk(view, Chi(n, src), steps)
		for _, p := range dists[1:] {
			sweep := NewSweepOrder(view, Rho(view, p))
			for j := 1; j < sweep.Len(); j++ {
				if phi := sweep.Conductance(j, total); phi < best {
					best = phi
				}
			}
		}
	}
	return best
}
