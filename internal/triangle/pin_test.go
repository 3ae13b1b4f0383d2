package triangle

import (
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// pinned is one algorithm's complete output on one graph: the triangle
// count and checksum, and every cost field the algorithm reports
// (Enumerate's Stats carry no Words).
type pinned struct {
	triangles int
	checksum  uint64
	stats     congest.Stats
}

// TestCongestOutputsPinned pins the three CONGEST triangle algorithms'
// outputs on a triangle-free grid, a dumbbell and a sparse G(n, p). The
// values were recorded when the engine ran one goroutine per node; any
// change to a protocol, to the router beneath Enumerate or to the
// engine's delivery order moves them.
func TestCongestOutputsPinned(t *testing.T) {
	cases := []struct {
		name                     string
		g                        *graph.Graph
		naive, clique, enumerate pinned
	}{
		{
			name:      "grid-12x12",
			g:         gen.Grid(12, 12),
			naive:     pinned{0, 0xa8c7f832281a39c5, congest.Stats{Rounds: 4, CongestRounds: 4, Messages: 1976, Words: 1976}},
			clique:    pinned{0, 0xa8c7f832281a39c5, congest.Stats{Rounds: 2, CongestRounds: 4, Messages: 42752, Words: 44320}},
			enumerate: pinned{0, 0xa8c7f832281a39c5, congest.Stats{Rounds: 1366, CongestRounds: 2616, Messages: 221448, Words: 0}},
		},
		{
			name:      "dumbbell-24",
			g:         gen.Dumbbell(24, 2, 1),
			naive:     pinned{4048, 0x6f38aadfc71ab240, congest.Stats{Rounds: 24, CongestRounds: 24, Messages: 25580, Words: 25580}},
			clique:    pinned{4048, 0x6f38aadfc71ab240, congest.Stats{Rounds: 23, CongestRounds: 46, Messages: 54007, Words: 56126}},
			enumerate: pinned{4048, 0x6f38aadfc71ab240, congest.Stats{Rounds: 1094, CongestRounds: 2145, Messages: 87891, Words: 0}},
		},
		{
			name:      "gnp-96",
			g:         gen.GNP(96, 0.1, 1),
			naive:     pinned{177, 0x43f498886c98577f, congest.Stats{Rounds: 20, CongestRounds: 20, Messages: 10556, Words: 10556}},
			clique:    pinned{177, 0x43f498886c98577f, congest.Stats{Rounds: 10, CongestRounds: 20, Messages: 93536, Words: 95872}},
			enumerate: pinned{177, 0x43f498886c98577f, congest.Stats{Rounds: 372, CongestRounds: 699, Messages: 70516, Words: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := graph.WholeGraph(tc.g)
			check := func(alg string, set *Set, st congest.Stats, err error, want pinned) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				got := pinned{triangles: set.Len(), checksum: set.Checksum(), stats: st}
				if got != want {
					t.Errorf("%s = %#v, want %#v", alg, got, want)
				}
			}
			set, st, err := Naive(view, 1)
			check("Naive", set, st, err, tc.naive)
			set, st, err = CliqueDLP(view, 1)
			check("CliqueDLP", set, st, err, tc.clique)
			set, es, err := Enumerate(view, Options{Seed: 1})
			check("Enumerate", set, congest.Stats{
				Rounds: es.Rounds, CongestRounds: es.CongestRounds, Messages: es.Messages,
			}, err, tc.enumerate)
		})
	}
}
