package spectral

import (
	"slices"
	"sync"

	"dexpander/internal/graph"
)

// WalkState is the sparse local-walk engine: a truncated lazy random walk
// in progress over one view, holding a dense value array whose live
// entries are tracked by an explicit support list with epoch-stamped
// membership. Every per-step operation — Step, StepTruncate, Sweep,
// Participating — touches only the walk's support and its incident arcs,
// so one nibble costs O(vol(support)) per step instead of O(n), and the
// buffers are pooled (AcquireWalkState/Release) so steady-state steps
// allocate nothing.
//
// The engine reproduces the dense reference (Step, Truncate, Rho,
// NewSweepOrderSupport) bit for bit: within a step, contributions
// accumulate in ascending source-vertex order with the exact floating
// point operations of the dense code, so distributions, sweep orders, and
// nibble outcomes are byte-identical to the oracle. Tests pin this
// equivalence across graph families.
type WalkState struct {
	view *graph.Sub

	// Current distribution: val[v] is live iff stamp[v] == epoch;
	// support lists the live vertices (ascending at the start of every
	// step; arbitrary order after).
	val     []float64
	stamp   []uint64
	epoch   uint64
	support []int

	// Staging buffers for Step's double-buffered delivery.
	nextVal     []float64
	nextStamp   []uint64
	nextEpoch   uint64
	nextSupport []int

	// Touched vertices: ever carried positive mass at a post-truncation
	// step (Definition 2's touched set), in first-touch order.
	touchStamp []uint64
	touchEpoch uint64
	touched    []int

	// Sweep scratch: the engine-owned SweepOrder aliases these slices.
	// sweepVerts keeps the previous sweep's order between calls (empty
	// after Init), and inPrefix[v] == sweepEpoch marks its vertices, so
	// the next Sweep can start its sort from that order.
	sweepEnts  []sweepEnt
	sweepVerts []int
	prefixVol  []int64
	prefixCut  []int64
	rhoCol     []float64
	inPrefix   []uint64
	sweepEpoch uint64
	sweep      SweepOrder

	// Edge marks for Participating's dedup, sized to the base M and
	// grown lazily (only nibble result assembly needs it); all false
	// between uses.
	edgeMarks []bool
}

var walkPool = sync.Pool{New: func() any { return new(WalkState) }}

// AcquireWalkState returns a pooled engine attached to the view, ready
// for Init. Buffers are reused across walks and across nibble trials;
// call Release when the walk's outputs have been materialized.
func AcquireWalkState(view *graph.Sub) *WalkState {
	w := walkPool.Get().(*WalkState)
	w.attach(view)
	return w
}

// Release returns the engine to the pool. Slices previously returned by
// Sweep become invalid.
func (w *WalkState) Release() {
	w.view = nil
	walkPool.Put(w)
}

// attach sizes the dense buffers for the view's base graph. Stamp arrays
// are either fresh (all zero) or carry stamps from earlier epochs, both
// distinct from every future epoch, so no clearing is needed.
func (w *WalkState) attach(view *graph.Sub) {
	w.view = view
	n := view.Base().N()
	if cap(w.val) < n {
		w.val = make([]float64, n)
		w.stamp = make([]uint64, n)
		w.nextVal = make([]float64, n)
		w.nextStamp = make([]uint64, n)
		w.touchStamp = make([]uint64, n)
		w.inPrefix = make([]uint64, n)
	}
	w.val = w.val[:n]
	w.stamp = w.stamp[:n]
	w.nextVal = w.nextVal[:n]
	w.nextStamp = w.nextStamp[:n]
	w.touchStamp = w.touchStamp[:n]
	w.inPrefix = w.inPrefix[:n]
}

// Init starts the walk as the point distribution chi_v and marks v
// touched, like the dense Chi + markTouched preamble.
func (w *WalkState) Init(v int) {
	w.epoch++
	w.support = append(w.support[:0], v)
	w.val[v] = 1
	w.stamp[v] = w.epoch

	w.touchEpoch++
	w.touched = append(w.touched[:0], v)
	w.touchStamp[v] = w.touchEpoch

	// Forget the previous walk's sweep order.
	w.sweepVerts = w.sweepVerts[:0]
	w.sweepEpoch++
}

// SupportLen returns the number of live entries. A support that empties
// can never refill: callers may stop stepping.
func (w *WalkState) SupportLen() int { return len(w.support) }

// Dist materializes the current distribution densely (for oracle
// comparisons and diagnostics; the hot paths never call it).
func (w *WalkState) Dist() Dist {
	d := NewDist(len(w.val))
	for _, v := range w.support {
		d[v] = w.val[v]
	}
	return d
}

// Support returns the live vertices in ascending order as a fresh slice.
func (w *WalkState) Support() []int {
	out := append([]int(nil), w.support...)
	slices.Sort(out)
	return out
}

// Touched returns the touched vertices in ascending order as a fresh
// slice.
func (w *WalkState) Touched() []int {
	out := append([]int(nil), w.touched...)
	slices.Sort(out)
	return out
}

// deliver adds x to the staged value of u, staging u on first touch.
func (w *WalkState) deliver(u int, x float64) {
	if w.nextStamp[u] != w.nextEpoch {
		w.nextStamp[u] = w.nextEpoch
		w.nextVal[u] = 0
		w.nextSupport = append(w.nextSupport, u)
	}
	w.nextVal[u] += x
}

// Step applies one lazy walk step M = (A D^{-1} + I)/2, replicating the
// dense Step exactly: sources are processed in ascending vertex order and
// each source's contributions are issued in base adjacency order, so the
// accumulated floating-point values match the dense code bit for bit.
func (w *WalkState) Step() {
	view := w.view
	g := view.Base()
	slices.Sort(w.support)
	w.nextEpoch++
	w.nextSupport = w.nextSupport[:0]
	for _, v := range w.support {
		mass := w.val[v]
		if mass == 0 || !view.Has(v) {
			// Dense Step iterates members only and skips zero mass; a
			// non-member start simply loses its mass.
			continue
		}
		deg := g.Deg(v)
		if deg == 0 {
			w.deliver(v, mass)
			continue
		}
		w.deliver(v, mass/2)
		share := mass / (2 * float64(deg))
		row := view.UsableNeighbors(v)
		for _, a := range row {
			w.deliver(a.To, share)
		}
		// Loop slots (degree deficit plus real loops) keep their share.
		w.deliver(v, share*float64(deg-len(row)))
	}
	w.val, w.nextVal = w.nextVal, w.val
	w.stamp, w.nextStamp = w.nextStamp, w.stamp
	w.epoch, w.nextEpoch = w.nextEpoch, w.epoch
	w.support, w.nextSupport = w.nextSupport, w.support
}

// Truncate applies [p]_eps in place — entries below 2*eps*deg are dropped
// from the support — and marks every surviving vertex touched.
func (w *WalkState) Truncate(eps float64) {
	g := w.view.Base()
	kept := w.support[:0]
	for _, v := range w.support {
		x := w.val[v]
		if x <= 0 || x < 2*eps*float64(g.Deg(v)) {
			w.stamp[v] = 0 // retire the entry
			continue
		}
		kept = append(kept, v)
		if w.touchStamp[v] != w.touchEpoch {
			w.touchStamp[v] = w.touchEpoch
			w.touched = append(w.touched, v)
		}
	}
	w.support = kept
}

// StepTruncate is one step of the truncated walk p~ <- [M p~]_eps. It
// reports whether the step changed the state: false means the same
// support with every value ==, a bitwise fixed point that every later
// step repeats. After Step's swap the next* buffers still hold the
// previous state, so the check costs O(|support|).
func (w *WalkState) StepTruncate(eps float64) (changed bool) {
	w.Step()
	w.Truncate(eps)
	if len(w.support) != len(w.nextSupport) {
		return true
	}
	for _, v := range w.support {
		if w.nextStamp[v] != w.nextEpoch || w.nextVal[v] != w.val[v] {
			return true
		}
	}
	return false
}

// sweepEnt is one sweep candidate: the comparator orders by decreasing
// rho with ties broken by vertex id, a strict total order, so every
// sorting algorithm yields the same unique permutation.
type sweepEnt struct {
	rho float64
	v   int
}

func compareSweepEnt(a, b sweepEnt) int {
	if a.rho != b.rho {
		if a.rho > b.rho {
			return -1
		}
		return 1
	}
	return a.v - b.v
}

// sortSweepEnts sorts ents by compareSweepEnt: by insertion while the
// element moves stay within 4*len(ents), then by slices.SortFunc. The
// comparator is a strict total order, so both reach the same permutation;
// insertion wins when ents arrive nearly sorted. It reports whether the
// insertion pass finished within budget.
func sortSweepEnts(ents []sweepEnt) bool {
	budget := 4 * len(ents)
	for i := 1; i < len(ents); i++ {
		e := ents[i]
		j := i
		for j > 0 && compareSweepEnt(e, ents[j-1]) < 0 {
			ents[j] = ents[j-1]
			j--
		}
		ents[j] = e
		if budget -= i - j; budget < 0 {
			slices.SortFunc(ents, compareSweepEnt)
			return false
		}
	}
	return true
}

// Sweep builds the sweep order of the current distribution's support,
// equivalent to NewSweepOrderSupport(view, Rho(view, p)) but in
// O(vol(support) + |support| log |support|) with no allocations at steady
// state. The sort starts from the previous sweep's order (its vertices
// still live, then the support vertices it lacks): rho order drifts
// slowly along a walk, so that input is nearly sorted. The returned
// SweepOrder aliases engine scratch: it is valid until the next Sweep or
// Release.
func (w *WalkState) Sweep() *SweepOrder {
	view := w.view
	g := view.Base()
	ents := w.sweepEnts[:0]
	for _, v := range w.sweepVerts {
		if w.stamp[v] != w.epoch {
			continue
		}
		if d := g.Deg(v); d > 0 && w.val[v] > 0 {
			ents = append(ents, sweepEnt{rho: w.val[v] / float64(d), v: v})
		}
	}
	for _, v := range w.support {
		if w.inPrefix[v] == w.sweepEpoch {
			continue // placed from the previous order
		}
		if d := g.Deg(v); d > 0 && w.val[v] > 0 {
			ents = append(ents, sweepEnt{rho: w.val[v] / float64(d), v: v})
		}
	}
	w.sweepEnts = ents
	sortSweepEnts(ents)

	k := len(ents)
	w.sweepVerts = growTo(w.sweepVerts, k)
	verts := w.sweepVerts
	w.prefixVol = growTo(w.prefixVol, k+1)
	w.prefixCut = growTo(w.prefixCut, k+1)
	w.rhoCol = growTo(w.rhoCol, k+1)
	w.prefixVol[0], w.prefixCut[0], w.rhoCol[0] = 0, 0, 0
	w.sweepEpoch++
	var cut int64
	for j, e := range ents {
		v := e.v
		verts[j] = v
		for _, a := range view.UsableNeighbors(v) {
			if w.inPrefix[a.To] == w.sweepEpoch {
				cut--
			} else {
				cut++
			}
		}
		w.inPrefix[v] = w.sweepEpoch
		w.prefixVol[j+1] = w.prefixVol[j] + int64(g.Deg(v))
		w.prefixCut[j+1] = cut
		w.rhoCol[j+1] = e.rho
	}
	w.sweep = SweepOrder{
		Vertices:  verts,
		PrefixVol: w.prefixVol,
		PrefixCut: w.prefixCut,
		Rho:       w.rhoCol,
	}
	return &w.sweep
}

// Participating returns the usable edges with at least one touched
// endpoint (Definition 2's P*), ascending by edge id, visiting only the
// touched vertices' adjacency instead of the global edge list.
func (w *WalkState) Participating() []int {
	m := w.view.Base().M()
	if cap(w.edgeMarks) < m {
		w.edgeMarks = make([]bool, m)
	}
	w.edgeMarks = w.edgeMarks[:m]
	return w.view.IncidentUsableEdges(w.touched, w.edgeMarks)
}

// growTo returns s resized to length n, reusing capacity.
func growTo[T int | int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
