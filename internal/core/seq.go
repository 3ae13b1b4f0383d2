package core

import (
	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
)

// SeqSubroutines runs both primitives with the sequential reference
// implementations (packages ldd and nibble). Round statistics are zero;
// use the distributed wiring for CONGEST cost measurements.
type SeqSubroutines struct {
	// Preset selects the constant family for both subroutines.
	Preset nibble.Preset
	// Workers bounds the walk pool of each SparseCut's Partition
	// (nibble.Params.Workers: 0 = GOMAXPROCS, 1 = inline serial; output
	// identical either way). Set 1 for a genuinely serial execution end
	// to end — e.g. the bench matrix's -seq cells. The default 0 is fine
	// under Decompose's own component pool: nesting pools keeps the
	// hardware busy whether a level has many small components or one big
	// one, and the surplus runnable goroutines just queue.
	Workers int
}

var _ Subroutines = SeqSubroutines{}

// LDD implements Subroutines with ldd.Decompose.
func (s SeqSubroutines) LDD(view *graph.Sub, beta float64, seed uint64) (*ldd.Result, congest.Stats, error) {
	pr := ldd.NewParams(view.Members().Len(), beta, lddPreset(s.Preset))
	return ldd.Decompose(view, pr, rng.New(seed)), congest.Stats{}, nil
}

// SparseCut implements Subroutines with the Theorem 3 re-parameterization
// of nibble.Partition on the active member set (the same composition as
// nibble.SparseCut, with the walk pool bounded by s.Workers).
func (s SeqSubroutines) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	view := comm.Restrict(active)
	pr := nibble.NewParams(view, nibble.PartitionPhi(view, phi, s.Preset), s.Preset)
	pr.Workers = s.Workers
	res := nibble.Partition(view, pr, rng.New(seed))
	return res, congest.Stats{}, nil
}

func lddPreset(p nibble.Preset) ldd.Preset {
	if p == nibble.Paper {
		return ldd.Paper
	}
	return ldd.Practical
}
