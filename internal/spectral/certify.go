package spectral

// This file holds two proofs that a view has no sparse cut, each of which
// answers true only with a proof behind it. Lambda2Above proves
// lambda2 > sigma by a dense Cholesky factorization, so that Cheeger's
// easy direction gives Phi(S) >= lambda2/2 for every S. ConductanceAbove
// proves Phi(S) > tau directly, by routing a product-demand multicommodity
// flow along BFS DAGs and measuring its congestion (a Jerrum–Sinclair
// canonical-path bound); it closes views where lambda2/2 falls below the
// conductance, as on rings of cliques and cycles, where its bound is
// exactly Phi. Both carry an explicit floating-point rounding margin.

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

// flowScratch is ConductanceAbove's pooled scratch, all sized by the view:
// a CSR of its usable arcs over local member indices, per-member work
// arrays, a load per arc, the BFS DAG of one source and the (edge, arc)
// keys that pair each edge's two arcs.
type flowScratch struct {
	off, nbr             []int32 // member i's arcs lead to nbr[off[i]:off[i+1]]
	dist, order, parents []int32
	deg, x, load         []float64
	dag                  []dagArc
	pairs                []uint64
}

// dagArc is an arc of a BFS DAG, from parent to child one layer further
// from the source.
type dagArc struct{ child, parent, arc int32 }

var flowPool = sync.Pool{New: func() any { return new(flowScratch) }}

// ConductanceAbove reports whether it can prove that every set S of the
// view's members with positive volume on both sides has conductance
// Phi(S) = |∂S| / min(vol S, vol S̄) above tau (volumes from base degrees,
// loops included, as graph.Sub.Conductance takes them). A true answer is a
// proof; false means only that no proof was found. It answers false for
// tau <= 0, NaN or infinite, for views with fewer than two members and for
// disconnected views.
//
// The proof is a product-demand multicommodity flow. From every member s
// it runs a BFS over the usable arcs and routes d(s) d(w) / (2 Vol) from
// s to every member w back along the BFS DAG: the flow that reaches a
// vertex is split equally over its arcs to the previous layer (parallel
// arcs count separately). The flows of all sources add up to a load on
// each edge. The pairs across any S carry vol(S) vol(S̄) / Vol through ∂S,
// so for the largest load C
//
//	|∂S| >= vol(S) vol(S̄) / (Vol C), and
//	Phi(S) >= max(vol S, vol S̄) / (Vol C) >= 1/(2C),
//
// and the view is certified when C < 1/(2 tau). On a cycle and on a ring of
// cliques the bound is Phi(G) itself. The loads are kept scaled by 2 Vol,
// so the test is load < Vol/tau. They accumulate per arc, and an edge's
// load is the sum of its two arcs' once every source has run.
//
// Two checks bound the work wasted on a view with a real cut. The answer
// is false as soon as one arc's load reaches the limit, and as soon as a
// BFS has found every layer up to one that, with the layers before it,
// bounds a set of conductance at most tau: its DAG arcs are that set's cut
// edges. Neither fires where the flow proves the bound, so neither changes
// an answer.
//
// Each load is a sum of nonnegative terms, and each term passes one
// product, at most deg(u) additions and one division at each of the at
// most k vertices u of its path, at most k additions into its arc's load
// and one into its edge's: fewer than N = Vol + 3k + 2 roundings. So the
// true load is at most the computed one divided by 1 - γ_N,
// γ_N = N u / (1 - N u) (Higham, Accuracy and Stability of Numerical
// Algorithms, Lemma 3.1). The limit is Vol/tau (1 - 2γ_N): γ_N >= 8u, so
// the doubled margin also covers the roundings of the limit itself. No
// value underflows, since every vertex routes its own demand of at least
// 1.
//
// It costs k BFS passes over the view's arcs, O(k (k + Vol)) work, and a
// disconnected view stops after the first. Its scratch, O(k + Vol), comes
// from a pool.
func ConductanceAbove(view *graph.Sub, tau float64) bool {
	if !(tau > 0) || math.IsInf(tau, 1) {
		return false
	}
	verts := view.MemberList()
	k := len(verts)
	if k < 2 {
		return false
	}
	sc := flowPool.Get().(*flowScratch)
	defer flowPool.Put(sc)
	sc.build(view, verts)
	vol := float64(view.TotalVol())
	const u = 0x1p-53 // unit roundoff
	n := vol + 3*float64(k) + 2
	gamma := n * u / (1 - n*u)
	limit := vol / tau * (1 - 2*gamma)
	off, nbr := sc.off, sc.nbr
	dist, order, parents := sc.dist, sc.order, sc.parents
	deg, x, load := sc.deg, sc.x, sc.load
	for s := range int32(k) {
		for i := range dist {
			dist[i] = -1
		}
		dist[s], order[0] = 0, s
		tail := 1
		dag := sc.dag[:0] // in the order the BFS finds the arcs
		volS := 0.0       // the volume of order[:head]
		for head := 0; head < tail; head++ {
			v := order[head]
			if head > 0 && dist[v] > dist[order[head-1]] {
				// v starts a layer, order[head:tail], that is complete;
				// its DAG arcs are the cut edges of the layers before
				// it. If they form a set of conductance at most tau
				// there is no proof: a ring of cliques whose bridges are
				// sparser than tau stops here, mostly in its first BFS.
				cut := int32(0)
				for _, w := range order[head:tail] {
					cut += parents[w]
				}
				if float64(cut) <= tau*min(volS, vol-volS) {
					return false
				}
			}
			volS += deg[v]
			for a := off[v]; a < off[v+1]; a++ {
				switch j := nbr[a]; dist[j] {
				case -1:
					dist[j], parents[j] = dist[v]+1, 1
					order[tail] = j
					tail++
				case dist[v] + 1:
					parents[j]++
				default:
					continue
				}
				dag = append(dag, dagArc{nbr[a], v, a})
			}
		}
		sc.dag = dag
		if tail < k {
			return false // disconnected
		}
		for i, d := range deg {
			x[i] = deg[s] * d
		}
		// Backward, every arc out of a vertex comes before the arcs into
		// it, so each vertex has its demand and all its descendants sent
		// it when it passes the sum on to its parents in equal shares.
		for _, d := range slices.Backward(dag) {
			share := x[d.child] / float64(parents[d.child])
			load[d.arc] += share
			if load[d.arc] >= limit {
				return false
			}
			x[d.parent] += share
		}
	}
	// Sorted by base edge id, each edge's two arcs are adjacent.
	pairs := sc.pairs[:0]
	for i, v := range verts {
		for p, a := range view.UsableNeighbors(v) {
			pairs = append(pairs, uint64(a.Edge)<<32|uint64(off[i]+int32(p)))
		}
	}
	sc.pairs = pairs
	slices.Sort(pairs)
	for i := 0; i < len(pairs); i += 2 {
		if load[uint32(pairs[i])]+load[uint32(pairs[i+1])] >= limit {
			return false
		}
	}
	return true
}

// build fills the scratch's arc CSR for the view, whose members are
// verts, sizes its work arrays to the view and clears the loads.
func (sc *flowScratch) build(view *graph.Sub, verts []int) {
	k := len(verts)
	sc.off = append(sc.off[:0], 0)
	sc.nbr = sc.nbr[:0]
	sc.deg = sc.deg[:0]
	for _, v := range verts {
		for _, a := range view.UsableNeighbors(v) {
			j, _ := slices.BinarySearch(verts, a.To)
			sc.nbr = append(sc.nbr, int32(j))
		}
		sc.off = append(sc.off, int32(len(sc.nbr)))
		sc.deg = append(sc.deg, float64(view.Deg(v)))
	}
	sc.load = slices.Grow(sc.load[:0], len(sc.nbr))[:len(sc.nbr)]
	clear(sc.load)
	for _, s := range []*[]int32{&sc.dist, &sc.order, &sc.parents} {
		*s = slices.Grow((*s)[:0], k)[:k]
	}
	sc.x = slices.Grow(sc.x[:0], k)[:k]
}
