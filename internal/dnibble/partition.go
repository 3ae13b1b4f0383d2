package dnibble

import (
	"fmt"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
)

// ParallelNibble runs the paper's A.4 procedure distributively: k
// RandomNibble instances (sampled exactly as the sequential version),
// the per-edge overlap cap w, and the (23/24)Vol prefix rule. Instances
// execute serially in the engine, all over the shared topo; see the
// package comment for the accounting note.
func ParallelNibble(topo *congest.Topology, view *graph.Sub, pr nibble.Params, r *rng.RNG, seed uint64) (*nibble.ParallelResult, congest.Stats, error) {
	return parallelNibble(topo, view, pr, r, seed, &walkScratch{})
}

// parallelNibble is ParallelNibble over a caller-owned scratch shared by
// all k instances (and, via Partition, by every iteration's instances).
func parallelNibble(topo *congest.Topology, view *graph.Sub, pr nibble.Params, r *rng.RNG, seed uint64, sc *walkScratch) (*nibble.ParallelResult, congest.Stats, error) {
	k := pr.InstanceCount(view)
	res := &nibble.ParallelResult{C: graph.NewVSet(view.Base().N()), Instances: k}
	var stats congest.Stats
	overlap := make(map[int]int)
	var cuts []*graph.VSet
	for i := 0; i < k; i++ {
		v, b := nibble.SampleStart(view, pr, r)
		one, err := approximateNibble(topo, view, pr, v, b, seed^uint64(i)*0x9e3779b97f4a7c15, sc)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(one.Stats)
		for _, e := range one.PStar {
			overlap[e]++
			if overlap[e] > res.MaxOverlap {
				res.MaxOverlap = overlap[e]
			}
		}
		cuts = append(cuts, one.C)
	}
	if res.MaxOverlap > pr.W {
		res.Overflowed = true
		return res, stats, nil
	}
	z := 23.0 / 24.0 * float64(view.TotalVol())
	union := graph.NewVSet(view.Base().N())
	best := graph.NewVSet(view.Base().N())
	for _, c := range cuts {
		union.AddAll(c)
		if float64(view.Vol(union)) <= z {
			best = union.Clone()
		}
	}
	res.C = best
	return res, stats, nil
}

// Partition runs the distributed nearly most balanced sparse cut loop
// (Lemma 11): repeated ParallelNibble on the remaining subgraph until
// the (47/48)Vol progress rule or the iteration budget stops it. Round
// costs of successive iterations add. The communication topology of comm
// is built once here and shared by every nibble of every iteration.
func Partition(comm *graph.Sub, view *graph.Sub, pr nibble.Params, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	n := view.Base().N()
	res := &nibble.PartitionResult{C: graph.NewVSet(n)}
	var stats congest.Stats
	r := rng.New(seed)
	s := pr.Iterations(view)
	totalVol := float64(view.TotalVol())
	topo := congest.NewTopology(comm)
	sc := &walkScratch{} // one buffer set for every nibble of every iteration
	w := view.Members().Clone()
	emptyStreak := 0
	for i := 1; i <= s; i++ {
		res.Iterations = i
		sub := view.Restrict(w)
		pn, ps, err := parallelNibble(topo, sub, pr, r, r.Fork(uint64(i)).Uint64(), sc)
		if err != nil {
			return nil, stats, fmt.Errorf("dnibble: partition iteration %d: %w", i, err)
		}
		stats.Add(ps)
		if pn.C.Empty() {
			emptyStreak++
			if pr.EmptyStop > 0 && emptyStreak >= pr.EmptyStop {
				break
			}
			continue
		}
		emptyStreak = 0
		res.C.AddAll(pn.C)
		// sub (which aliases w and has cached its member data by now) is
		// dead from here on: the peel must come after its last use, and
		// the next iteration restricts the view afresh.
		w.RemoveAll(pn.C)
		if float64(view.Vol(w)) <= 47.0/48.0*totalVol {
			break
		}
	}
	if !res.C.Empty() {
		res.Conductance = view.Conductance(res.C)
		res.Balance = view.Balance(res.C)
	}
	return res, stats, nil
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
