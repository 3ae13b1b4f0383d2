package dnibble

import (
	"slices"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/triangle"
)

// TestDistributedOutputsPinned pins the distributed stack's exact
// outputs: the cut, the iteration count and every congest.Stats field of
// two sparse cuts, and the labels digest and Stats of two Theorem 1
// decompositions with DistSubroutines. Refactors of the walk, the
// Partition loop or the engine must keep every row bit-identical; a
// change to the candidate family or the acceptance test changes them on
// purpose and re-pins them.
//
// The Dumbbell(8, 1, 1) cut has conductance 0.143, above the Practical
// TransferH(0.05) = 0.1: the threshold-grid drift of ROADMAP item 1,
// pinned as it stands.
func TestDistributedOutputsPinned(t *testing.T) {
	cuts := []struct {
		name  string
		g     *graph.Graph
		phi   float64
		seed  uint64
		cut   []int
		iters int
		stats congest.Stats
	}{
		{"dumbbell-8", gen.Dumbbell(8, 1, 1), 0.05, 1,
			[]int{0, 8, 9, 10, 11, 12, 13, 14, 15}, 1, congest.Stats{Rounds: 2455, CongestRounds: 2455, Messages: 55624, Words: 55939}},
		{"unbalanced-14-7", gen.UnbalancedDumbbell(14, 7, 1), 0.2, 23,
			[]int{17}, 1, congest.Stats{Rounds: 711, CongestRounds: 711, Messages: 30870, Words: 31270}},
	}
	for _, tc := range cuts {
		t.Run("cut/"+tc.name, func(t *testing.T) {
			view := graph.WholeGraph(tc.g)
			res, stats, err := SparseCut(view, view, tc.phi, nibble.Practical, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			got := res.C.Members()
			if !slices.Equal(got, tc.cut) || res.Iterations != tc.iters || stats != tc.stats {
				t.Fatalf("got C=%v iterations=%d stats=%+v, want C=%v iterations=%d stats=%+v",
					got, res.Iterations, stats, tc.cut, tc.iters, tc.stats)
			}
		})
	}

	decs := []struct {
		name   string
		g      *graph.Graph
		count  int
		digest uint64
		stats  congest.Stats
	}{
		{"ring-4x12", gen.RingOfCliques(4, 12, 3), 4, 0xa59f6bda1772a365,
			congest.Stats{Rounds: 121484, CongestRounds: 121484, Messages: 5053886, Words: 5107281}},
		{"dumbbell-8", gen.Dumbbell(8, 1, 1), 2, 0xfee052741bd53f46,
			congest.Stats{Rounds: 44109, CongestRounds: 44109, Messages: 864702, Words: 879831}},
	}
	for _, tc := range decs {
		t.Run("decompose/"+tc.name, func(t *testing.T) {
			view := graph.WholeGraph(tc.g)
			dec, err := core.Decompose(view, core.Options{Eps: 0.6, K: 2, Preset: nibble.Practical, Seed: 19},
				DistSubroutines{Preset: nibble.Practical})
			if err != nil {
				t.Fatal(err)
			}
			words := []uint64{uint64(dec.Count), uint64(dec.CutEdges)}
			for _, l := range dec.Labels {
				words = append(words, uint64(int64(l)))
			}
			digest := triangle.HashWords(words...)
			if dec.Count != tc.count || digest != tc.digest || dec.Stats != tc.stats {
				t.Fatalf("got %d parts digest %016x stats %+v, want %d parts digest %016x stats %+v",
					dec.Count, digest, dec.Stats, tc.count, tc.digest, tc.stats)
			}
		})
	}
}
