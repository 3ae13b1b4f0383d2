package triangle

import (
	"dexpander/internal/congest"
	"dexpander/internal/graph"
)

// Naive runs the folklore CONGEST algorithm: every vertex streams its
// entire (alive) neighbor list to every neighbor, one id per edge per
// round, then checks which of its neighbors' neighbors close a triangle
// with it. Round complexity is exactly the maximum alive degree plus one
// — Theta(n) on dense graphs, the baseline the paper's ~O(n^{1/3})
// algorithm beats.
func Naive(view *graph.Sub, seed uint64) (*Set, congest.Stats, error) {
	out := NewSet()
	// Precompute the number of pipeline rounds: max alive degree.
	maxDeg := 0
	view.Members().ForEach(func(v int) {
		if d := aliveNeighbors(view, v); len(d) > maxDeg {
			maxDeg = len(d)
		}
	})
	eng := congest.New(view, congest.Config{Seed: seed, MaxWords: 1})
	err := eng.RunSteps(func(nd *congest.Node) congest.Step {
		if maxDeg == 0 {
			return nil // no edges, no triangles
		}
		v := nd.V()
		mine := make([]int, nd.Degree())
		for p := range mine {
			mine[p] = nd.NeighborID(p)
		}
		known := make(map[int]map[int]bool, nd.Degree()) // neighbor -> its reported neighbors
		for _, u := range mine {
			known[u] = make(map[int]bool)
		}
		r := 0
		// stream sends the node's r-th neighbor id to every neighbor.
		stream := func() {
			if r < len(mine) {
				for p := 0; p < nd.Degree(); p++ {
					nd.Send(p, int64(mine[r]))
				}
			}
		}
		stream()
		return func(in []congest.Incoming) bool {
			// Messages staged in round r arrive here.
			for _, m := range in {
				known[nd.NeighborID(m.Port)][int(m.Words[0])] = true
			}
			if r++; r < maxDeg {
				stream()
				return false
			}
			for _, u := range mine {
				if u <= v {
					continue
				}
				for _, w := range mine {
					if w <= u {
						continue
					}
					if known[u][w] {
						out.Add(Triangle{A: v, B: u, C: w})
					}
				}
			}
			return true
		}
	})
	if err != nil {
		return nil, eng.Stats(), err
	}
	return out, eng.Stats(), nil
}

func aliveNeighbors(view *graph.Sub, v int) []int {
	g := view.Base()
	var out []int
	for _, a := range g.Neighbors(v) {
		if view.Usable(a.Edge) && a.To != v {
			out = append(out, a.To)
		}
	}
	return out
}
