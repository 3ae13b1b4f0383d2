package spectral

import (
	"math"

	"dexpander/internal/graph"
)

// Lambda2 estimates the second-smallest eigenvalue of the normalized
// Laplacian of the view's graph G{S} (loops included) by power iteration
// on N = D^{-1/2} A D^{-1/2} with the top eigenvector D^{1/2}·1 deflated.
// It returns 0 for views with fewer than two members or zero volume.
//
// The estimate is not a bound. It is 1 minus a Rayleigh quotient of N
// taken orthogonal to D^{1/2}·1, which is at most mu2, so it can only
// over-estimate lambda2, and it moves with seed: on BarbellPath(10, 40)
// at 400 iterations and seed 17 it reads 8.11 times the exact lambda2.
// Cheeger's inequality lambda2/2 <= Phi(G{S}) <= sqrt(2*lambda2) then
// gives estimates of conductance, not certificates. Lambda2Above is the
// proved test: it answers whether lambda2 exceeds a given value.
func Lambda2(view *graph.Sub, iters int, seed uint64) float64 {
	g := view.Base()
	verts := view.Members().Members()
	if len(verts) < 2 {
		return 0
	}
	n := len(verts)
	idx := make([]int, g.N())
	for i := range idx {
		idx[i] = -1
	}
	deg := make([]float64, n)
	var vol float64
	for i, v := range verts {
		idx[v] = i
		deg[i] = float64(g.Deg(v))
		vol += deg[i]
	}
	if vol == 0 {
		return 0
	}
	// Adjacency apply: y = A x with loop weights Loops(v) on the
	// diagonal. Precompute loop counts once.
	loops := make([]float64, n)
	for i, v := range verts {
		loops[i] = float64(view.Loops(v))
	}
	applyN := func(x, y []float64) {
		for i := range y {
			y[i] = 0
		}
		for i, v := range verts {
			if deg[i] == 0 {
				continue
			}
			xi := x[i] / math.Sqrt(deg[i])
			for _, a := range g.Neighbors(v) {
				if !view.Usable(a.Edge) || a.To == v {
					continue
				}
				j := idx[a.To]
				y[j] += xi
			}
			y[i] += loops[i] * xi
		}
		for i := range y {
			if deg[i] > 0 {
				y[i] /= math.Sqrt(deg[i])
			}
		}
	}
	// Top eigenvector of N is u1(i) = sqrt(deg_i)/sqrt(vol).
	u1 := make([]float64, n)
	for i := range u1 {
		u1[i] = math.Sqrt(deg[i] / vol)
	}
	// Deterministic pseudo-random start vector orthogonal to u1.
	x := make([]float64, n)
	s := seed*2654435761 + 1
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x[i] = float64(int64(s%2001)-1000) / 1000
	}
	orthonormalize(x, u1)
	y := make([]float64, n)
	var mu float64
	if iters <= 0 {
		iters = 200
	}
	for it := 0; it < iters; it++ {
		// Power-iterate on (I + N)/2 to make all eigenvalues
		// non-negative, preserving the eigenvector of mu2(N).
		applyN(x, y)
		for i := range y {
			y[i] = (y[i] + x[i]) / 2
		}
		orthonormalize(y, u1)
		x, y = y, x
	}
	applyN(x, y)
	mu = dot(x, y) // Rayleigh quotient of N at the converged vector
	lambda := 1 - mu
	if lambda < 0 {
		lambda = 0
	}
	return lambda
}

// CheegerLower returns Lambda2/2, Cheeger's lower bound on the view's
// conductance evaluated at the power-iteration estimate. Since Lambda2
// can over-estimate lambda2, this is an estimate, not a certified bound;
// Lambda2Above(view, 2*phi) proves Phi(G{S}) > phi.
func CheegerLower(view *graph.Sub, iters int, seed uint64) float64 {
	return Lambda2(view, iters, seed) / 2
}

// CheegerUpper returns the Cheeger upper bound sqrt(2*lambda2).
func CheegerUpper(view *graph.Sub, iters int, seed uint64) float64 {
	return math.Sqrt(2 * Lambda2(view, iters, seed))
}

func orthonormalize(x, u []float64) {
	d := dot(x, u)
	for i := range x {
		x[i] -= d * u[i]
	}
	norm := math.Sqrt(dot(x, x))
	if norm == 0 {
		// Degenerate start; reset to a fixed vector orthogonal to u in
		// the first two coordinates.
		x[0], x[1] = u[1], -u[0]
		norm = math.Sqrt(dot(x, x))
		if norm == 0 {
			x[0] = 1
			norm = 1
		}
	}
	for i := range x {
		x[i] /= norm
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
