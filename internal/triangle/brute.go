// Package triangle implements distributed triangle enumeration: the
// paper's ~O(n^{1/3})-round CONGEST algorithm (Theorem 2) built on the
// expander decomposition and expander routing, together with the
// baselines it is compared against — a brute-force oracle, the naive
// CONGEST neighborhood-exchange algorithm, and the Dolev–Lenzen–Peled
// deterministic CONGESTED-CLIQUE algorithm whose Omega(n^{1/3}/log n)
// bound the paper matches from the CONGEST side.
package triangle

import (
	"sort"

	"dexpander/internal/graph"
)

// Triangle is a triple of vertices with A < B < C.
type Triangle struct {
	A, B, C int
}

// packed returns the triangle's vertex ids packed 21 bits each into one
// int64, and false when some id does not fit in 21 bits.
func (t Triangle) packed() (int64, bool) {
	if uint(t.A)|uint(t.B)|uint(t.C) >= 1<<21 {
		return 0, false
	}
	return int64(t.A)<<42 | int64(t.B)<<21 | int64(t.C), true
}

// MakeTriangle sorts three distinct vertices into a Triangle.
func MakeTriangle(x, y, z int) Triangle {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y, z = z, y
	}
	if x > y {
		x, y = y, x
	}
	return Triangle{A: x, B: y, C: z}
}

// Set is a deduplicating triangle collection. A triangle whose vertex ids
// all fit in 21 bits is keyed by its packed int64, the cheaper map key;
// any other triangle is keyed by itself in wide.
type Set struct {
	m    map[int64]Triangle
	wide map[Triangle]struct{}
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[int64]Triangle)} }

// newSetSized returns an empty set with capacity for n triangles.
func newSetSized(n int) *Set { return &Set{m: make(map[int64]Triangle, n)} }

// Add inserts a triangle.
func (s *Set) Add(t Triangle) {
	if k, ok := t.packed(); ok {
		s.m[k] = t
		return
	}
	if s.wide == nil {
		s.wide = make(map[Triangle]struct{})
	}
	s.wide[t] = struct{}{}
}

// Len returns the number of distinct triangles.
func (s *Set) Len() int { return len(s.m) + len(s.wide) }

// Has reports membership.
func (s *Set) Has(t Triangle) bool {
	if k, ok := t.packed(); ok {
		_, ok = s.m[k]
		return ok
	}
	_, ok := s.wide[t]
	return ok
}

// Merge inserts every triangle of o. Set semantics make the result
// independent of merge order, so concurrent producers can be folded in
// any sequence (Enumerate merges per-component sets in component order).
func (s *Set) Merge(o *Set) {
	for k, t := range o.m {
		s.m[k] = t
	}
	for t := range o.wide {
		s.Add(t)
	}
}

// Sorted returns the triangles in lexicographic order.
func (s *Set) Sorted() []Triangle {
	out := make([]Triangle, 0, s.Len())
	for _, t := range s.m {
		out = append(out, t)
	}
	for t := range s.wide {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].C < out[j].C
	})
	return out
}

// HashWords digests a word sequence with 64-bit FNV-1a, byte by byte in
// little-endian order. It is the one digest primitive behind every
// cross-run validation checksum (Set.Checksum here, the bench subsystem's
// cell checksums), so the constants live in exactly one place.
func HashWords(words ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (w >> shift) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// Checksum returns an order-independent FNV-1a digest of the triangle
// set: equal sets have equal checksums regardless of insertion order, so
// benchmark runs can validate outputs across processes without shipping
// the full set.
func (s *Set) Checksum() uint64 {
	var sum uint64
	for k := range s.m {
		// Commutative combine keeps the digest order-independent.
		sum += HashWords(uint64(k))
	}
	for t := range s.wide {
		sum += HashWords(uint64(t.A), uint64(t.B), uint64(t.C))
	}
	// Mix in the cardinality so the empty set and unlucky cancellations
	// stay distinguishable.
	return sum ^ HashWords(uint64(s.Len()))
}

// Equal reports whether two sets hold exactly the same triangles.
func (s *Set) Equal(o *Set) bool {
	if len(s.m) != len(o.m) || len(s.wide) != len(o.wide) {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	for t := range s.wide {
		if _, ok := o.wide[t]; !ok {
			return false
		}
	}
	return true
}

// BruteForce enumerates every triangle of the view's usable edges by
// neighbor-set intersection in O(sum_v deg(v)^2). It is the ground-truth
// oracle for every test and benchmark.
func BruteForce(view *graph.Sub) *Set {
	g := view.Base()
	out := NewSet()
	adj := make([]map[int]bool, g.N())
	view.Members().ForEach(func(v int) {
		adj[v] = make(map[int]bool)
	})
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		adj[u][v] = true
		adj[v][u] = true
	}
	view.Members().ForEach(func(v int) {
		for x := range adj[v] {
			if x <= v {
				continue
			}
			for y := range adj[v] {
				if y <= x {
					continue
				}
				if adj[x][y] {
					out.Add(Triangle{A: v, B: x, C: y})
				}
			}
		}
	})
	return out
}

// Count returns the number of triangles without materializing a set.
func Count(view *graph.Sub) int { return BruteForce(view).Len() }
