// Package gen builds the synthetic graph families used by the experiments.
//
// The paper evaluates nothing empirically (it is a theory paper), so the
// benchmark workloads are chosen to exercise each theorem where its
// behavior is visible:
//
//   - RingOfCliques / Dumbbell: graphs whose optimal expander decomposition
//     and most-balanced sparse cuts are known exactly, for quality checks.
//   - GNP with p = 1/2: the hard instance family behind the Omega(n^{1/3})
//     triangle-enumeration lower bound (Section 4 of the paper).
//   - PlantedPartition (SBM): communities with controllable inter-community
//     conductance, the canonical expander-decomposition input.
//   - RandomRegular / Hypercube: positive instances with high conductance
//     (the decomposition should return one part).
//   - Torus / Grid / Path: low-conductance everywhere, stressing LDD and
//     Phase 1.
//   - ChungLu: heavy-tailed degrees, stressing the volume-based balance
//     definitions.
//   - BarabasiAlbert: preferential attachment — the canonical power-law
//     skew workload for the rank-ordered triangle kernels (old vertices
//     become hubs whose low ids are exactly an id-ordered kernel's worst
//     case).
//   - ExpanderOfCliques: clusters whose quotient graph is an expander,
//     separating decomposition quality from diameter effects.
//   - BipartiteGNP: triangle-free by construction, the zero-output
//     validity family for the triangle benchmarks.
//
// All generators are deterministic in their seed.
package gen

import (
	"fmt"
	"math"
	"sort"

	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// GNPConnected returns G(n, p) with a random Hamiltonian path added first,
// guaranteeing connectivity while keeping the G(n, p) character for
// p >> log(n)/n.
func GNPConnected(n int, p float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return dedup(b.Graph())
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the configuration model with restarts. n*d must be even and d < n.
func RandomRegular(n, d int, seed uint64) *graph.Graph {
	if n*d%2 != 0 {
		panic("gen: n*d must be even for a d-regular graph")
	}
	if d >= n {
		panic("gen: need d < n")
	}
	r := rng.New(seed)
	for attempt := 0; ; attempt++ {
		if g, ok := tryConfigModel(n, d, r); ok {
			return g
		}
		if attempt > 500 {
			panic("gen: configuration model failed to converge")
		}
	}
}

func tryConfigModel(n, d int, r *rng.RNG) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := make(map[[2]int]bool, n*d/2)
	b := graph.NewBuilder(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return nil, false
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Graph(), true
}

// RingOfCliques returns k cliques of size s arranged in a ring, adjacent
// cliques joined by a single edge. Its natural expander decomposition is
// the k cliques with k inter-cluster edges, and each bridge is a sparse
// cut. Requires k >= 2 (k == 2 yields a double bridge) and s >= 2.
func RingOfCliques(k, s int, seed uint64) *graph.Graph {
	if k < 2 || s < 2 {
		panic("gen: RingOfCliques needs k >= 2, s >= 2")
	}
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		// Bridge from this clique's vertex 0 to the next clique's
		// vertex 1, so that k == 2 yields two distinct bridges.
		next := ((c + 1) % k) * s
		b.AddEdge(base, next+1)
	}
	return dedup(b.Graph())
}

// Dumbbell returns two cliques of size s joined by `bridges` parallel-ish
// disjoint bridge edges; the planted most-balanced sparse cut is the two
// halves with balance 1/2 and conductance ~ bridges / (s*(s-1)/2*2).
func Dumbbell(s, bridges int, seed uint64) *graph.Graph {
	if s < 2 || bridges < 1 || bridges > s {
		panic("gen: Dumbbell needs 2 <= s, 1 <= bridges <= s")
	}
	b := graph.NewBuilder(2 * s)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			b.AddEdge(i, j)
			b.AddEdge(s+i, s+j)
		}
	}
	for i := 0; i < bridges; i++ {
		b.AddEdge(i, s+i)
	}
	return b.Graph()
}

// UnbalancedDumbbell returns a clique of size s1 and a clique of size s2
// joined by one bridge: a planted sparse cut with balance
// min(vol1, vol2)/vol controllable via s2/s1. Useful for the Theorem 3
// balance sweep.
func UnbalancedDumbbell(s1, s2 int, seed uint64) *graph.Graph {
	if s1 < 2 || s2 < 2 {
		panic("gen: UnbalancedDumbbell needs cliques of size >= 2")
	}
	b := graph.NewBuilder(s1 + s2)
	for i := 0; i < s1; i++ {
		for j := i + 1; j < s1; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 0; i < s2; i++ {
		for j := i + 1; j < s2; j++ {
			b.AddEdge(s1+i, s1+j)
		}
	}
	b.AddEdge(0, s1)
	return b.Graph()
}

// BarbellPath joins two cliques K_clique by a path of pathLen extra
// vertices: dense ends, sparse middle. The workload that exercises the
// low-diameter decomposition's density partition (clique vertices are
// V'_D, path vertices V'_S) and its W-merge.
func BarbellPath(clique, pathLen int) *graph.Graph {
	if clique < 2 || pathLen < 1 {
		panic("gen: BarbellPath needs clique >= 2, pathLen >= 1")
	}
	n := 2*clique + pathLen
	b := graph.NewBuilder(n)
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			b.AddEdge(i, j)
			b.AddEdge(clique+pathLen+i, clique+pathLen+j)
		}
	}
	prev := 0
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, clique+i)
		prev = clique + i
	}
	b.AddEdge(prev, clique+pathLen)
	return b.Graph()
}

// SatelliteCliques returns a core clique K_core with satCount satellite
// cliques K_satSize, each attached to the core by a single edge. The
// satellites are sparse cuts of very low balance (vol ~ satSize^2 vs the
// core's core^2), the configuration that drives Theorem 1's Phase 2:
// Phase 1's balanced-cut test fails (each cut is below the eps/12 volume
// threshold) and the level ladder peels the satellites instead.
func SatelliteCliques(core, satSize, satCount int, seed uint64) *graph.Graph {
	if core < 2 || satSize < 2 || satCount < 1 {
		panic("gen: SatelliteCliques needs core, satSize >= 2 and satCount >= 1")
	}
	if satCount > core {
		panic("gen: need satCount <= core for distinct attachment points")
	}
	n := core + satCount*satSize
	b := graph.NewBuilder(n)
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			b.AddEdge(i, j)
		}
	}
	for s := 0; s < satCount; s++ {
		base := core + s*satSize
		for i := 0; i < satSize; i++ {
			for j := i + 1; j < satSize; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		b.AddEdge(s, base) // attach to distinct core vertices
	}
	return b.Graph()
}

// PlantedPartition returns a stochastic block model graph: k blocks of
// size s, intra-block edge probability pIn, inter-block probability pOut.
func PlantedPartition(k, s int, pIn, pOut float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := k * s
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/s == v/s {
				p = pIn
			}
			if r.Bernoulli(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube graph on 2^d vertices
// (conductance Theta(1/d), an excellent expander for its degree).
func Hypercube(d int) *graph.Graph {
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Graph()
}

// Torus returns the k x k 2D torus (conductance Theta(1/k): a canonical
// non-expander with sparse balanced cuts everywhere).
func Torus(k int) *graph.Graph {
	if k < 3 {
		panic("gen: Torus needs k >= 3")
	}
	b := graph.NewBuilder(k * k)
	id := func(i, j int) int { return ((i%k+k)%k)*k + (j%k+k)%k }
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			b.AddEdge(id(i, j), id(i+1, j))
			b.AddEdge(id(i, j), id(i, j+1))
		}
	}
	return b.Graph()
}

// Grid returns the rows x cols 2D grid graph (no wraparound): the
// bounded-degree planar workload with Theta(1/min(rows,cols))
// conductance, the open-boundary sibling of Torus.
func Grid(rows, cols int) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("gen: Grid needs rows, cols >= 1")
	}
	b := graph.NewBuilder(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i+1 < rows {
				b.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < cols {
				b.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return b.Graph()
}

// BipartiteGNP returns a random bipartite graph: left part {0..nl-1},
// right part {nl..nl+nr-1}, each cross pair an edge independently with
// probability p. Bipartite graphs are triangle-free, which makes the
// family a zero-output validity check for every triangle algorithm (any
// reported triangle is a bug, not a workload artifact).
func BipartiteGNP(nl, nr int, p float64, seed uint64) *graph.Graph {
	if nl < 1 || nr < 1 {
		panic("gen: BipartiteGNP needs nl, nr >= 1")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(nl + nr)
	for u := 0; u < nl; u++ {
		for v := 0; v < nr; v++ {
			if r.Bernoulli(p) {
				b.AddEdge(u, nl+v)
			}
		}
	}
	return b.Graph()
}

// ExpanderOfCliques returns k cliques of size s whose super-graph is the
// union of d random perfect matchings over the cliques (k even, d >= 1):
// each matched clique pair is joined by one edge between random members.
// With d >= 3 the super-graph is an expander w.h.p., so the instance is
// the "clustered expander" workload — its natural expander decomposition
// is the k cliques, but unlike RingOfCliques the quotient graph mixes
// fast, which separates decomposition quality from diameter effects.
// Duplicate inter-clique edges from colliding matchings are merged.
func ExpanderOfCliques(k, s, d int, seed uint64) *graph.Graph {
	if k < 2 || k%2 != 0 {
		panic("gen: ExpanderOfCliques needs even k >= 2")
	}
	if s < 2 || d < 1 {
		panic("gen: ExpanderOfCliques needs s >= 2, d >= 1")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	for m := 0; m < d; m++ {
		perm := r.Perm(k)
		for i := 0; i < k; i += 2 {
			ca, cb := perm[i], perm[i+1]
			b.AddEdge(ca*s+r.Intn(s), cb*s+r.Intn(s))
		}
	}
	return dedup(b.Graph())
}

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	return b.Graph()
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Graph()
}

// Star returns the star graph with one hub and n-1 leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Graph()
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

// ExpanderByMatchings returns the union of d random perfect matchings on n
// vertices (n even): with d >= 3 this is an expander w.h.p. Parallel edges
// are merged; the result is a simple near-d-regular expander.
func ExpanderByMatchings(n, d int, seed uint64) *graph.Graph {
	if n%2 != 0 {
		panic("gen: ExpanderByMatchings needs even n")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < d; i++ {
		perm := r.Perm(n)
		for j := 0; j < n; j += 2 {
			b.AddEdge(perm[j], perm[j+1])
		}
	}
	return dedup(b.Graph())
}

// ChungLu returns a Chung-Lu random graph with expected degree sequence
// w_i proportional to (i+1)^(-1/(gamma-1)) scaled to average degree
// avgDeg; gamma > 2 gives a power-law tail.
func ChungLu(n int, gamma, avgDeg float64, seed uint64) *graph.Graph {
	if gamma <= 2 {
		panic("gen: ChungLu needs gamma > 2")
	}
	r := rng.New(seed)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1/(gamma-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	b := graph.NewBuilder(n)
	total := avgDeg * float64(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := w[u] * w[v] / total
			if p > 1 {
				p = 1
			}
			if r.Bernoulli(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// BarabasiAlbert returns a preferential-attachment graph: m0 initial
// vertices, then each new vertex attaches to m0 distinct existing
// vertices chosen with probability proportional to their current degree
// (the first arrival links to all m0 initial vertices, seeding the
// degree distribution). Exactly m0*(n-m0) edges, connected and simple by
// construction, with the power-law degree tail and old-id hubs that make
// it the canonical skewed-kernel workload. Needs 1 <= m0 < n.
func BarabasiAlbert(n, m0 int, seed uint64) *graph.Graph {
	if m0 < 1 || m0 >= n {
		panic("gen: BarabasiAlbert needs 1 <= m0 < n")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// repeated holds every edge endpoint once per incidence; uniform
	// sampling from it IS degree-proportional sampling. Rejection keeps
	// the m0 targets distinct; a slice (not a map) keeps the edge
	// insertion order — and therefore the whole instance — deterministic
	// in the seed.
	repeated := make([]int, 0, 2*m0*(n-m0))
	targets := make([]int, 0, m0)
	for v := m0; v < n; v++ {
		targets = targets[:0]
		if v == m0 {
			for u := 0; u < m0; u++ {
				targets = append(targets, u)
			}
		} else {
			for len(targets) < m0 {
				u := repeated[r.Intn(len(repeated))]
				fresh := true
				for _, t := range targets {
					if t == u {
						fresh = false
						break
					}
				}
				if fresh {
					targets = append(targets, u)
				}
			}
		}
		for _, u := range targets {
			b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	return b.Graph()
}

// LargestComponent returns the subgraph induced by the largest connected
// component of g, relabeled to 0..k-1, plus the original ids of the kept
// vertices. Many random generators can produce small satellite components;
// experiments that need connectivity use this.
func LargestComponent(g *graph.Graph) (*graph.Graph, []int) {
	labels, count := graph.WholeGraph(g).Components()
	if count == 0 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		if l != graph.Unreachable {
			sizes[l]++
		}
	}
	best := 0
	for l, s := range sizes {
		if s > sizes[best] {
			best = l
		}
	}
	keep := make([]int, 0, sizes[best])
	newID := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		newID[v] = -1
		if labels[v] == best {
			newID[v] = len(keep)
			keep = append(keep, v)
		}
	}
	b := graph.NewBuilder(len(keep))
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if newID[u] >= 0 && newID[v] >= 0 {
			b.AddEdge(newID[u], newID[v])
		}
	}
	return b.Graph(), keep
}

// dedup removes parallel edges (keeping loops and one copy of each edge).
func dedup(g *graph.Graph) *graph.Graph {
	type key struct{ u, v int }
	seen := make(map[key]bool, g.M())
	b := graph.NewBuilder(g.N())
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		k := key{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		b.AddEdge(u, v)
	}
	return b.Graph()
}

// Describe returns a short human-readable summary used by the CLIs.
func Describe(g *graph.Graph) string {
	degs := g.DegreeSequence()
	med := 0
	if len(degs) > 0 {
		med = degs[len(degs)/2]
	}
	comps := graph.WholeGraph(g).ComponentSets()
	sizes := make([]int, len(comps))
	for i, c := range comps {
		sizes[i] = c.Len()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > 3 {
		sizes = sizes[:3]
	}
	return fmt.Sprintf("n=%d m=%d maxdeg=%d meddeg=%d comps=%d largest=%v",
		g.N(), g.M(), g.MaxDeg(), med, len(comps), sizes)
}
