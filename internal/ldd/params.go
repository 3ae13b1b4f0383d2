// Package ldd implements the paper's low-diameter decomposition
// (Appendix B): the Miller–Peng–Xu Clustering(beta) with exponential
// shifts, the density-based partition V = V_D ∪ V_S that upgrades the
// in-expectation cut bound to a with-high-probability bound without
// spending diameter time, and the combined LowDiamDecomposition of
// Theorem 4. Sequential reference implementations live here alongside
// CONGEST implementations that run in the simulator.
package ldd

import (
	"math"

	"dexpander/internal/graph"
)

// Preset mirrors nibble.Preset: Paper keeps Appendix B's constants,
// Practical shrinks them to runnable sizes with the same forms.
type Preset int

const (
	// Paper uses a = 5 ln n / beta, b = K ln n / beta with K = 40, and
	// the ball radius 100ab.
	Paper Preset = iota + 1
	// Practical uses the smallest a that still exceeds the worst-case
	// cluster diameter (the proofs' only structural requirement) and a
	// single-log b.
	Practical
)

// Params carries the decomposition constants.
type Params struct {
	// Beta is the target cut fraction.
	Beta float64
	// T is the number of clustering epochs, ceil(2 ln n / beta); every
	// vertex is clustered after T epochs and cluster radius is < T.
	T int
	// A is the merge radius a of the V_D construction. The invariants
	// of Lemmas 17–20 require A strictly above the maximum cluster
	// diameter (paper: 5 ln n/beta > 4 ln n/beta).
	A int
	// B is the density threshold divisor b; W-iterations number at most
	// 2B and V_D component diameters are bounded by ~10*A*B.
	B int
	// RBig is the big-ball radius (paper: 100ab) used in the V'_D/V'_S
	// density test; values beyond the graph diameter are equivalent.
	RBig int
	// Preset records the constant family.
	Preset Preset
}

// NewParams builds decomposition constants for an n-vertex graph.
func NewParams(n int, beta float64, preset Preset) Params {
	if beta <= 0 || beta >= 1 {
		panic("ldd: beta must be in (0,1)")
	}
	if n < 2 {
		n = 2
	}
	lnN := math.Log(float64(n))
	t := int(math.Ceil(2 * lnN / beta))
	if t < 1 {
		t = 1
	}
	p := Params{Beta: beta, T: t, Preset: preset}
	switch preset {
	case Paper:
		p.A = int(math.Ceil(5 * lnN / beta))
		p.B = int(math.Ceil(40 * lnN / beta))
	default:
		// T+1 exceeds the typical cluster radius (max shift ~ ln n /
		// beta = T/2). The paper's a > 4 ln n / beta strictly dominates
		// the worst-case cluster diameter; halving it only relaxes the
		// final diameter constant (a component may span two V_D pieces)
		// while letting local balls stay local at simulable sizes.
		p.A = p.T + 1
		p.B = max(2, int(math.Ceil(lnN/beta)))
		p.Preset = Practical
	}
	p.RBig = 100 * p.A * p.B
	if p.RBig > 4*n {
		p.RBig = 4 * n // beyond any diameter; keeps BFS bounds sane
	}
	return p
}

// Result is a low-diameter decomposition outcome.
type Result struct {
	// Labels assigns each member vertex its component id; non-members
	// hold graph.Unreachable.
	Labels []int
	// Count is the number of components.
	Count int
	// CutEdges is the number of usable inter-component edges removed.
	CutEdges int64
	// VD and VS record the density partition used (nil for plain
	// clustering results).
	VD, VS *graph.VSet
}

// Components materializes the labeled components as vertex sets.
func (r *Result) Components(n int) []*graph.VSet {
	sets := make([]*graph.VSet, r.Count)
	for i := range sets {
		sets[i] = graph.NewVSet(n)
	}
	for v, l := range r.Labels {
		if l != graph.Unreachable {
			sets[l].Add(v)
		}
	}
	return sets
}

// MaxDiameter returns the maximum diameter over components (exact;
// intended for tests and verification on small graphs).
func (r *Result) MaxDiameter(view *graph.Sub) int {
	max := 0
	for _, c := range r.Components(view.Base().N()) {
		if c.Len() <= 1 {
			continue
		}
		// Diameter within the component using the view's usable edges.
		if d := view.Restrict(c).Diameter(); d > max {
			max = d
		}
	}
	return max
}
