package graph

import "sync"

// Sub is a view of a base graph restricted to a member vertex set with an
// alive-edge mask: the paper's G{S} with removed edges turned into implicit
// self-loops. Degrees, and hence volumes, always come from the base graph.
//
// Invariants maintained by the constructors: a nil edge mask means "all
// edges alive"; an edge is usable only if it is alive and both endpoints
// are members.
//
// A Sub lazily caches derived data (member list, volumes, alive degrees,
// the usable-arc CSR) on first use, so repeated queries and whole-view
// traversals do not re-filter the base adjacency through Usable. The
// cache makes a view logically immutable: do not mutate the member set or
// edge mask after calling any method — build a new view with Restrict or
// NewSub instead (every construction site starts with an empty cache).
// Cache construction is synchronized, so concurrent readers (e.g.
// parallel nibble trials) may share one view.
type Sub struct {
	g       *Graph
	members *VSet
	edgeOn  []bool // nil means all alive

	cacheOnce sync.Once
	cache     *viewCache

	volOnce sync.Once
	vol     int64 // TotalVol, memoized apart from the cache
}

// NewSub returns a view of g restricted to members with the given alive
// mask. members == nil means all vertices; edgeOn == nil means all edges.
// The Sub aliases (does not copy) both arguments.
func NewSub(g *Graph, members *VSet, edgeOn []bool) *Sub {
	if members == nil {
		members = FullVSet(g.N())
	}
	return &Sub{g: g, members: members, edgeOn: edgeOn}
}

// WholeGraph returns the trivial view of g: all vertices, all edges.
func WholeGraph(g *Graph) *Sub { return NewSub(g, nil, nil) }

// Base returns the underlying base graph.
func (s *Sub) Base() *Graph { return s.g }

// Members returns the member set (aliased, do not modify).
func (s *Sub) Members() *VSet { return s.members }

// EdgeMask returns the alive-edge mask (aliased; nil means all alive).
func (s *Sub) EdgeMask() []bool { return s.edgeOn }

// EdgeAlive reports whether edge e is alive in the view.
func (s *Sub) EdgeAlive(e int) bool { return s.edgeOn == nil || s.edgeOn[e] }

// Usable reports whether edge e is alive and has both endpoints in the
// member set, i.e. whether it is a real (non-loop-ified) edge of G{S}.
func (s *Sub) Usable(e int) bool {
	if !s.EdgeAlive(e) {
		return false
	}
	ed := s.g.edges[e]
	return s.members.Has(ed.U) && s.members.Has(ed.V)
}

// Has reports whether v is a member of the view.
func (s *Sub) Has(v int) bool { return s.members.Has(v) }

// Deg returns the base-graph degree of v (the paper's invariant degree).
func (s *Sub) Deg(v int) int { return s.g.Deg(v) }

// AliveDeg returns the number of usable (alive, intra-member) edges at v,
// counting loops once. Deg(v) - AliveDeg(v) is the implicit self-loop count
// of v in G{S}. O(1) from the view cache.
func (s *Sub) AliveDeg(v int) int {
	return int(s.cacheData().aliveDeg[v])
}

// Loops returns the self-loop count of v in the view G{S}: the degree
// deficit (implicit loops) plus any real loops of the base graph that
// remain alive. Both counts come from the single pass of the cached
// degree builder; O(1) per query.
func (s *Sub) Loops(v int) int {
	if !s.members.Has(v) {
		// A non-member has no usable edges: the whole degree is deficit.
		return s.g.Deg(v)
	}
	return int(s.cacheData().loops[v])
}

// Vol returns the volume of set x (base degrees), which should be a subset
// of the members.
func (s *Sub) Vol(x *VSet) int64 { return s.g.Vol(x) }

// TotalVol returns the volume of the whole member set; this is Vol(V) of
// the view's graph G{S}, which equals the base volume of S because degrees
// are preserved. The first call sums the member degrees, without building
// the view cache; later calls are O(1).
func (s *Sub) TotalVol() int64 {
	s.volOnce.Do(func() { s.vol = s.g.Vol(s.members) })
	return s.vol
}

// UsableEdgeCount returns the number of usable edges in the view, from
// the view cache.
func (s *Sub) UsableEdgeCount() int { return s.cacheData().usableEdges }

// Restrict returns a new view with the member set further restricted to x
// (which should be a subset of the current members). The edge mask is
// shared; the new view starts with an empty cache.
func (s *Sub) Restrict(x *VSet) *Sub {
	return &Sub{g: s.g, members: x, edgeOn: s.edgeOn}
}

// CutEdges returns |∂(x)| within the view: the number of usable edges with
// exactly one endpoint in x. x should be a subset of the member set.
func (s *Sub) CutEdges(x *VSet) int64 {
	var cut int64
	for e := 0; e < s.g.M(); e++ {
		if !s.Usable(e) {
			continue
		}
		ed := s.g.edges[e]
		if ed.U == ed.V {
			continue
		}
		if x.Has(ed.U) != x.Has(ed.V) {
			cut++
		}
	}
	return cut
}

// Conductance returns Phi(x) = |∂(x)| / min(Vol(x), Vol(S\x)) within the
// view, where S is the member set. It returns +Inf-like behavior as
// (cut>0 -> large) avoided: if both sides have zero volume it returns 0;
// if exactly one side has zero volume it returns Inf represented as
// MaxFloat to keep comparisons simple. Callers compare against thresholds,
// so the exact sentinel does not matter.
func (s *Sub) Conductance(x *VSet) float64 {
	cut := s.CutEdges(x)
	volX := s.g.Vol(x)
	volRest := s.TotalVol() - volX
	minVol := volX
	if volRest < minVol {
		minVol = volRest
	}
	if minVol <= 0 {
		if cut == 0 {
			return 0
		}
		return maxConductance
	}
	return float64(cut) / float64(minVol)
}

// Balance returns bal(x) = min(Vol(x), Vol(S\x)) / Vol(S) within the view.
func (s *Sub) Balance(x *VSet) float64 {
	total := s.TotalVol()
	if total == 0 {
		return 0
	}
	volX := s.g.Vol(x)
	volRest := total - volX
	minVol := volX
	if volRest < minVol {
		minVol = volRest
	}
	return float64(minVol) / float64(total)
}

// maxConductance is the sentinel returned when a cut has edges but a
// zero-volume small side; any threshold comparison treats it as "not
// sparse".
const maxConductance = 1e18
