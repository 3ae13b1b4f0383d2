package nibble

import (
	"runtime"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// TestDetSparseCutAcrossGOMAXPROCS pins det's probe fan-out: each peel
// iteration's probes run on GOMAXPROCS goroutines and are reduced in
// schedule order, so the cut, the iteration count and the conductance
// must not depend on GOMAXPROCS. Every graph here makes det peel, so the
// reduction's choice is what is compared.
func TestDetSparseCutAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		phi  float64
	}{
		{"dumbbell12", gen.Dumbbell(12, 1, 1), 0.05},
		{"ring6x6", gen.RingOfCliques(6, 6, 1), 0.1},
		{"planted4x8", gen.PlantedPartition(4, 8, 0.6, 0.02, 3), 0.1},
		{"unbalanced12x6", gen.UnbalancedDumbbell(12, 6, 1), 0.05},
	} {
		var want *PartitionResult
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := DetSparseCut(graph.WholeGraph(tc.g), tc.phi, Practical)
			if want == nil {
				if got.Empty() {
					t.Fatalf("%s: det found no cut; the test needs a peel", tc.name)
				}
				want = got
				continue
			}
			if !got.C.Equal(want.C) || got.Iterations != want.Iterations || got.Conductance != want.Conductance {
				t.Fatalf("%s: GOMAXPROCS=%d gives %v in %d iterations (phi %v), GOMAXPROCS=1 %v in %d (phi %v)",
					tc.name, procs, got.C.Members(), got.Iterations, got.Conductance,
					want.C.Members(), want.Iterations, want.Conductance)
			}
		}
	}
}
