package core

import (
	"context"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
)

// detSubroutines plugs the derandomized primitives into the Theorem 1
// orchestration: ball-growing in place of the exponential-shift LDD and
// the greedy deterministic sweep-cut schedule in place of the Nibble
// random walks. Both ignore the seed the orchestration hands them — the
// seed-prefork discipline still runs, it just feeds pure functions — so
// the whole pipeline's output depends on nothing but the view and the
// non-Seed Options fields.
type detSubroutines struct {
	preset nibble.Preset
}

var _ Subroutines = detSubroutines{}

// LDD implements Subroutines with the deterministic ball-growing
// clustering; its worst-case cut bound matches the randomized LDD's
// in-expectation bound, so the Phase 1 charging argument is unchanged.
func (d detSubroutines) LDD(view *graph.Sub, beta float64, _ uint64) (*ldd.Result, congest.Stats, error) {
	pr := ldd.NewParams(view.Members().Len(), beta, lddPreset(d.preset))
	return ldd.BallClustering(view, pr), congest.Stats{}, nil
}

// SparseCut implements Subroutines with the derandomized Theorem 3
// schedule.
func (d detSubroutines) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, _ uint64) (*nibble.PartitionResult, congest.Stats, error) {
	view := comm.Restrict(active)
	return nibble.DetSparseCut(view, phi, d.preset), congest.Stats{}, nil
}

// decomposeDet runs the "det" backend, the deterministic decomposition
// variant: identical output for any Seed, worker count, GOMAXPROCS, and
// process.
func decomposeDet(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
	// The subroutines ignore every seed drawn from opt.Seed; pin it so
	// even the (unobservable) draw schedule is one fixed sequence.
	opt.Seed = 1
	return withStats(DecomposeContext(ctx, view, opt, detSubroutines{preset: opt.Preset}))
}
