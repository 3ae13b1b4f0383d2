package dnibble

import (
	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
)

// Partition runs the distributed nearly most balanced sparse cut
// (Lemma 11): nibble's Partition loop, with every ApproximateNibble
// instance executed in the CONGEST engine and the round costs of all
// instances summed. The communication topology of comm and one walk
// scratch are built here and shared by every instance, so the loop runs
// with one worker. It returns the loop's result, the summed Stats of the
// walks that ran, and the first engine error.
func Partition(comm *graph.Sub, view *graph.Sub, pr nibble.Params, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	topo := congest.NewTopology(comm)
	sc := &walkScratch{}
	pr.Workers = 1
	var stats congest.Stats
	res, err := nibble.PartitionWalk(view, pr, rng.New(seed), func(sub *graph.Sub, pr nibble.Params, v, b int) (*nibble.Result, error) {
		one, st, err := approximateNibble(topo, sub, pr, v, b, sc)
		stats.Add(st)
		return one, err
	})
	return res, stats, err
}

// SparseCut is the distributed Theorem 3 interface, mirroring
// nibble.SparseCut with measured rounds.
func SparseCut(comm *graph.Sub, view *graph.Sub, phi float64, preset nibble.Preset, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	phiP := nibble.PartitionPhi(view, phi, preset)
	pr := nibble.NewParams(view, phiP, preset)
	if preset == nibble.Practical {
		// Distributed iterations are orders of magnitude costlier to
		// simulate; keep the budget tight (documented deviation).
		pr.EmptyStop = 4
		pr.SCap = 16
	}
	return Partition(comm, view, pr, seed)
}

// DistSubroutines plugs the distributed primitives into the Theorem 1
// orchestrator (package core): clustering-based LDD and the distributed
// sparse cut, both with measured CONGEST costs.
type DistSubroutines struct {
	// Preset selects constants for both subroutines.
	Preset nibble.Preset
}

// LDD implements core.Subroutines.
func (d DistSubroutines) LDD(view *graph.Sub, beta float64, seed uint64) (*ldd.Result, congest.Stats, error) {
	pr := ldd.NewParams(view.Members().Len(), beta, lddPreset(d.Preset))
	return ldd.DistClustering(view, pr, seed)
}

// SparseCut implements core.Subroutines.
func (d DistSubroutines) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	view := comm.Restrict(active)
	return SparseCut(comm, view, phi, d.Preset, seed)
}

func lddPreset(p nibble.Preset) ldd.Preset {
	if p == nibble.Paper {
		return ldd.Paper
	}
	return ldd.Practical
}
