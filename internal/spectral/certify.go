package spectral

import (
	"math"
	"slices"
	"sync"

	"dexpander/internal/graph"
)

// certPool pools Lambda2Above's dense scratch: the packed k×k lower
// triangle it factors in place plus two length-k vectors.
var certPool = sync.Pool{New: func() any { return new([]float64) }}

// Lambda2Above reports whether it can prove that lambda2, the
// second-smallest eigenvalue of the view's normalized Laplacian
// L = I - D^{-1/2} A D^{-1/2} (loops included, as NormalizedSpectrum
// builds it), exceeds sigma. A true answer is a proof; false means only
// that no proof was found. It answers false for sigma outside (0, 2),
// for views with fewer than two members and for views with a zero-degree
// member, where lambda2 is 0.
//
// The proof is a dense Cholesky factorization of
//
//	M = L + 2 u1 u1ᵀ - (sigma + c) I,  u1 = D^{1/2} 1 / sqrt(Vol),
//
// in O(k³/3) flops over the view's k members. u1 spans L's null space,
// so L + 2 u1 u1ᵀ has eigenvalues min(2, lambda2), ..., and the
// factorization can complete only if lambda2 > sigma + c once rounding is
// accounted for. The margin c covers both roundings:
//
//   - the stored entries differ from M's by E1 with
//     ‖E1‖₂ <= ‖E1‖_F <= 64 u (sqrt(k) + 1), since each entry carries at
//     most 8 u of its terms' magnitudes and ‖L‖_F <= 2 sqrt(k);
//   - a factorization R of the stored matrix A that runs to completion
//     satisfies RᵀR = A + ΔA with
//     ‖ΔA‖₂ <= γ_{k+1} trace(A) / (1 - γ_{k+1}), γ_{k+1} = (k+1)u/(1-(k+1)u)
//     (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3,
//     with ‖|Rᵀ||R|‖ <= ‖R‖_F² = trace(A + ΔA)), and trace(A) <= k + 3.
//
// RᵀR is positive definite, so lambda_min(M) > -‖ΔA‖₂ - ‖E1‖₂ and
// lambda2 > sigma + c - ‖ΔA‖₂ - ‖E1‖₂ - 2u >= sigma. c is twice that sum,
// which also covers the rounding of c itself; it is about 2e-12 at
// k = 96, so the test is as sharp as lambda2 itself. The scratch (4k²
// bytes) comes from a pool.
func Lambda2Above(view *graph.Sub, sigma float64) bool {
	if !(sigma > 0 && sigma < 2) {
		return false
	}
	g := view.Base()
	verts := view.MemberList()
	k := len(verts)
	if k < 2 {
		return false
	}
	var vol float64
	for _, v := range verts {
		d := g.Deg(v)
		if d == 0 {
			return false
		}
		vol += float64(d)
	}
	const u = 0x1p-53 // unit roundoff
	kf := float64(k)
	gamma := (kf + 1) * u / (1 - (kf+1)*u)
	c := 2 * (gamma/(1-gamma)*(kf+3) + 64*u*(math.Sqrt(kf)+1) + 2*u)
	shift := sigma + c

	buf := certPool.Get().(*[]float64)
	defer certPool.Put(buf)
	tri := k * (k + 1) / 2 // row i of the lower triangle starts at i(i+1)/2
	if cap(*buf) < tri+2*k {
		*buf = make([]float64, tri+2*k)
	}
	a := (*buf)[:tri]
	rs := (*buf)[tri : tri+k]     // 1/sqrt(d_i)
	su := (*buf)[tri+k : tri+2*k] // u1_i = sqrt(d_i/Vol)
	for i, v := range verts {
		d := float64(g.Deg(v))
		rs[i] = 1 / math.Sqrt(d)
		su[i] = math.Sqrt(d / vol)
		// Row i of the lower triangle: the exact multiplicity of each
		// usable edge to an earlier member first, so a multi-edge's
		// entry is rounded once, then the entries.
		row := a[i*(i+1)/2 : i*(i+1)/2+i+1]
		clear(row)
		for _, arc := range view.UsableNeighbors(v) {
			if j, _ := slices.BinarySearch(verts, arc.To); j < i {
				row[j]++
			}
		}
		for j := range i {
			row[j] = 2*su[i]*su[j] - row[j]*rs[i]*rs[j]
		}
		row[i] = 1 - float64(view.Loops(v))/d + 2*su[i]*su[i] - shift
	}
	// Row-oriented Cholesky of the lower triangle, in place.
	for i := 0; i < k; i++ {
		ri := a[i*(i+1)/2 : i*(i+1)/2+i+1]
		for j := 0; j <= i; j++ {
			rj := a[j*(j+1)/2 : j*(j+1)/2+j]
			s := ri[j]
			for p, x := range ri[:len(rj)] {
				s -= x * rj[p]
			}
			if j < i {
				ri[j] = s / a[j*(j+1)/2+j]
				continue
			}
			if !(s > 0) {
				return false
			}
			ri[i] = math.Sqrt(s)
		}
	}
	return true
}
