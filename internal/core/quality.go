package core

import (
	"fmt"
	"math"

	"dexpander/internal/graph"
	"dexpander/internal/spectral"
)

// Quality summarizes how good a decomposition is against the
// (eps, phi) contract of Theorem 1.
type Quality struct {
	// Components is the number of parts.
	Components int
	// EpsAchieved is the inter-cluster edge fraction as accounted by the
	// run's own removal counters.
	EpsAchieved float64
	// InterFraction is the inter-cluster edge fraction recomputed
	// independently from the final mask (usable view edges no longer
	// alive, over the view's usable edges). It is the quantity auto
	// selection and the bench quality cross-checks verify against the
	// requested eps bound; it equals EpsAchieved unless the removal
	// accounting and the mask disagree.
	InterFraction float64
	// MinPhiLower is the minimum, over non-singleton components, of a
	// certified conductance lower bound (exact for small components,
	// Cheeger lambda2/2 otherwise).
	MinPhiLower float64
	// MinPhiExactKnown reports whether every component was verified
	// exactly (all small enough for brute force).
	MinPhiExactKnown bool
	// LargestComponent is the largest part's vertex count.
	LargestComponent int
	// SingletonFraction is the fraction of member vertices isolated as
	// singletons.
	SingletonFraction float64
}

// String renders a compact report.
func (q Quality) String() string {
	exact := "cheeger"
	if q.MinPhiExactKnown {
		exact = "exact"
	}
	return fmt.Sprintf("parts=%d eps=%.4f inter=%.4f minPhi(%s)=%.4f largest=%d singletons=%.3f",
		q.Components, q.EpsAchieved, q.InterFraction, exact, q.MinPhiLower, q.LargestComponent, q.SingletonFraction)
}

// Evaluate measures the decomposition on its original view. The
// conductance certificate is with respect to G{Vi}: each component is
// assessed with all its surviving internal edges plus implicit loops,
// matching the paper's Phi(G{Vi}) >= phi condition.
func (d *Decomposition) Evaluate(view *graph.Sub) Quality {
	g := view.Base()
	q := Quality{
		Components:       d.Count,
		EpsAchieved:      d.EpsAchieved,
		MinPhiLower:      math.Inf(1),
		MinPhiExactKnown: true,
		InterFraction:    d.InterFraction(view),
	}
	final := graph.NewSub(g, view.Members(), d.FinalMask)
	singles := 0
	for _, c := range final.ComponentSets() {
		if c.Len() > q.LargestComponent {
			q.LargestComponent = c.Len()
		}
		if c.Len() == 1 {
			singles++
			continue
		}
		comp := final.Restrict(c)
		var lower float64
		if c.Len() <= graph.MaxBruteVertices {
			_, lower = comp.MinConductanceBrute()
		} else {
			lower = spectral.CheegerLower(comp, 400, 17)
			q.MinPhiExactKnown = false
		}
		if lower < q.MinPhiLower {
			q.MinPhiLower = lower
		}
	}
	if math.IsInf(q.MinPhiLower, 1) {
		q.MinPhiLower = 0 // all-singleton decomposition
	}
	if n := view.Members().Len(); n > 0 {
		q.SingletonFraction = float64(singles) / float64(n)
	}
	return q
}

// InterFraction recomputes the inter-cluster edge fraction from the
// final mask: the view's usable edges no longer alive, over its usable
// edges (0 for an edgeless view). It is Quality.InterFraction without
// Evaluate's conductance certificate, and what auto selection and the
// service's max_eps_fraction check verify.
func (d *Decomposition) InterFraction(view *graph.Sub) float64 {
	g := view.Base()
	var inter, usable int
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) {
			continue
		}
		usable++
		if !d.FinalMask[e] {
			inter++
		}
	}
	if usable == 0 {
		return 0
	}
	return float64(inter) / float64(usable)
}

// CheckPartition verifies structural validity: labels partition the
// member set, every non-singleton component is connected under the final
// mask, and no surviving edge crosses components. It returns an error
// describing the first violation.
func (d *Decomposition) CheckPartition(view *graph.Sub) error {
	g := view.Base()
	count := 0
	for v, l := range d.Labels {
		member := view.Has(v)
		if member {
			count++
			if l == graph.Unreachable || l < 0 || l >= d.Count {
				return fmt.Errorf("member %d has invalid label %d", v, l)
			}
		} else if l != graph.Unreachable {
			return fmt.Errorf("non-member %d labeled %d", v, l)
		}
	}
	if count != view.Members().Len() {
		return fmt.Errorf("labeled %d of %d members", count, view.Members().Len())
	}
	for e := 0; e < g.M(); e++ {
		if !d.FinalMask[e] || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		if !view.Has(u) || !view.Has(v) {
			continue
		}
		if d.Labels[u] != d.Labels[v] {
			return fmt.Errorf("surviving edge %d crosses components %d/%d", e, d.Labels[u], d.Labels[v])
		}
	}
	final := graph.NewSub(g, view.Members(), d.FinalMask)
	for i, c := range final.ComponentSets() {
		if c.Len() > 1 && !final.Restrict(c).IsConnected() {
			return fmt.Errorf("component %d disconnected", i)
		}
	}
	return nil
}
