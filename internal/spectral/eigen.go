package spectral

import (
	"math"
	"slices"

	"dexpander/internal/graph"
)

// NormalizedSpectrum computes the full eigenvalue spectrum of the view's
// normalized Laplacian L = I - D^{-1/2} A D^{-1/2} (loops included) by
// cyclic Jacobi rotations, exact up to numerical tolerance. Intended for
// small views (it is O(k^3) per sweep over k members); it cross-checks
// the power-iteration estimate Lambda2 in tests. Eigenvalues are
// returned in ascending order; views with fewer than one member return
// nil.
func NormalizedSpectrum(view *graph.Sub, maxVertices int) []float64 {
	verts := view.Members().Members()
	k := len(verts)
	if k == 0 || k > maxVertices {
		return nil
	}
	g := view.Base()
	idx := make(map[int]int, k)
	for i, v := range verts {
		idx[v] = i
	}
	// Assemble L densely.
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
	}
	deg := make([]float64, k)
	for i, v := range verts {
		deg[i] = float64(g.Deg(v))
	}
	for i, v := range verts {
		if deg[i] == 0 {
			continue
		}
		loops := float64(view.Loops(v))
		a[i][i] = 1 - loops/deg[i]
		for _, arc := range g.Neighbors(v) {
			if !view.Usable(arc.Edge) || arc.To == v {
				continue
			}
			j := idx[arc.To]
			a[i][j] -= 1 / math.Sqrt(deg[i]*deg[j])
		}
	}
	jacobiEigen(a)
	eig := make([]float64, k)
	for i := range eig {
		eig[i] = a[i][i]
	}
	slices.Sort(eig)
	return eig
}

// Lambda2Exact returns the second-smallest normalized Laplacian
// eigenvalue via NormalizedSpectrum, or -1 when the view is too large.
func Lambda2Exact(view *graph.Sub, maxVertices int) float64 {
	eig := NormalizedSpectrum(view, maxVertices)
	if len(eig) < 2 {
		return -1
	}
	return eig[1]
}

// jacobiEigen diagonalizes the symmetric matrix a in place by cyclic
// Jacobi rotations until off-diagonal mass is negligible.
func jacobiEigen(a [][]float64) {
	k := len(a)
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			return
		}
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				if math.Abs(a[p][q]) < 1e-15 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < k; i++ {
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[i][q] = s*aip + c*aiq
				}
				for i := 0; i < k; i++ {
					api, aqi := a[p][i], a[q][i]
					a[p][i] = c*api - s*aqi
					a[q][i] = s*api + c*aqi
				}
			}
		}
	}
}
