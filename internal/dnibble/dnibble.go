// Package dnibble is the CONGEST implementation of the nibble machinery
// (Appendix A.5 of the paper): distributed truncated random walks and
// sweep-cut evaluation over a spanning tree of the participating
// subgraph, running in the congest engine so that round costs are
// measured, not asserted. Everything above one walk is package nibble's:
// Partition runs nibble.PartitionWalk, whose ParallelNibble merge (the
// per-edge overlap cap w and the (23/24)Vol prefix rule) and progress
// rules are the sequential reference's, with each ApproximateNibble
// instance executed here.
//
// Fidelity notes:
//
//   - The walk is exact: each round every node with mass sends
//     p(v)/(2 deg(v)) across each usable edge (one float word — the
//     paper's O(log n)-bit probability values) and accumulates its lazy
//     and loop shares locally; truncation is a local comparison.
//   - The sweep search follows Lemma 9's structure (a spanning tree over
//     the participating edges P*, prefix statistics by convergecast,
//     verdicts by broadcast) with one practical substitution: candidate
//     prefixes are the geometric rho-threshold family
//     {gamma * 2^i} instead of the volume-geometric (j_x) sequence. Both
//     families have O(phi^{-1} log Vol) candidates and both evaluate the
//     relaxed conditions (C.1*)-(C.3*) through nibble.Params.Starred; the
//     sequential reference implements the exact (j_x) definition. Walk
//     steps are probed on a geometric time grid for the same reason.
//   - ParallelNibble's k instances execute serially inside the engine
//     (their round costs add): Partition runs nibble's loop with one
//     worker, since the instances share one topology and one scratch. The
//     paper multiplexes them over w logical channels; at practically
//     simulable sizes the paper's own k formula gives k = 1, where the
//     two schedules coincide.
package dnibble

import (
	"fmt"
	"math"
	"sync"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

// walkScratch carries the per-instance buffers of the distributed nibble
// across the many instances of one Partition run: the rho snapshots on
// the probe time grid, the touched set (as a stamped list, so clearing
// costs O(|touched|), not O(n)), the per-node walk-port tables (rebuilt
// once per view, not once per instance), and the edge-dedup marks behind
// the O(vol(touched)) P* assembly. Partition shares one across every
// instance of its loop.
type walkScratch struct {
	view *graph.Sub // view the port tables were built for

	rhoAt       [][]float64
	gridUsed    int
	touched     []bool
	touchedMu   sync.Mutex
	touchedList []int

	ports     [][]bool
	portCount []int

	edgeSeen []bool
}

// reset prepares the scratch for one nibble instance on the view. Buffers
// grow to the base size once and are wiped through the previous
// instance's touched list.
func (sc *walkScratch) reset(view *graph.Sub, gridLen int) {
	n := view.Base().N()
	if cap(sc.touched) < n {
		sc.touched = make([]bool, n)
		sc.portCount = make([]int, n)
		sc.ports = make([][]bool, n)
		sc.rhoAt = nil
	} else {
		sc.touched = sc.touched[:n]
		sc.portCount = sc.portCount[:n]
		sc.ports = sc.ports[:n]
	}
	for len(sc.rhoAt) < gridLen {
		sc.rhoAt = append(sc.rhoAt, make([]float64, cap(sc.touched)))
	}
	for _, u := range sc.touchedList {
		sc.touched[u] = false
		for i := 0; i < sc.gridUsed; i++ {
			sc.rhoAt[i][u] = 0
		}
	}
	sc.gridUsed = gridLen
	sc.touchedList = sc.touchedList[:0]
	if sc.view != view {
		sc.view = view
		clear(sc.ports)
	}
}

// markTouched records first touches; nodes run concurrently inside the
// engine, so the list append is locked (the flag itself is per-vertex).
func (sc *walkScratch) markTouched(v int) {
	if sc.touched[v] {
		return
	}
	sc.touched[v] = true
	sc.touchedMu.Lock()
	sc.touchedList = append(sc.touchedList, v)
	sc.touchedMu.Unlock()
}

// participating assembles P* (usable edges with a touched endpoint,
// ascending) from the touched vertices' adjacency.
func (sc *walkScratch) participating(view *graph.Sub) []int {
	m := view.Base().M()
	if cap(sc.edgeSeen) < m {
		sc.edgeSeen = make([]bool, m)
	}
	sc.edgeSeen = sc.edgeSeen[:m]
	return view.IncidentUsableEdges(sc.touchedList, sc.edgeSeen)
}

// approximateNibble runs one distributed ApproximateNibble from start
// vertex v at volume scale b on the view (the paper's G{W}): t0 walk
// rounds, a BFS tree over the touched region, then threshold probes
// evaluated by convergecast until one passes (C.1*)-(C.3*). Steps is the
// grid time of the accepted probe, or T0. The Stats are the engine's
// rounds and messages, also when the engine fails.
//
// topo supplies the communication topology, which may cover a supergraph
// of the view's members (Phase 2 components talk over all of G*); the
// walk itself respects the view. Building the topology once (see
// congest.NewTopology) and sharing it across nibbles is what keeps the
// Partition loop from paying per-instance reconstruction, and sc shares
// the O(n) rho grid, touched set and port tables the same way. The walk
// reads no node's random stream, so the engine needs no seed.
func approximateNibble(topo *congest.Topology, view *graph.Sub, pr nibble.Params, v, b int, sc *walkScratch) (*nibble.Result, congest.Stats, error) {
	g := view.Base()
	n := g.N()
	eps := pr.EpsB(b)
	totalVol := float64(view.TotalVol())
	minVol := 5.0 / 7.0 * math.Pow(2, float64(b-1))

	// Geometric probe schedules.
	tGrid := geomGrid(pr.T0)
	thresholds := thresholdGrid(pr.Gamma, totalVol)

	// Per-node data recorded by the engine run.
	sc.reset(view, len(tGrid))
	rhoAt := sc.rhoAt
	touched := sc.touched

	memberOf := view.Members()
	inView := func(u int) bool { return memberOf.Has(u) }

	res := &nibble.Result{C: graph.NewVSet(n), Steps: pr.T0}
	eng := congest.NewEngine(topo, congest.Config{MaxWords: 4})
	var verdictT, verdictTh = -1, -1
	err := eng.Run(func(nd *congest.Node) {
		me := nd.V()
		deg := float64(g.Deg(me))
		active := inView(me)
		// Ports that stay inside the view (walk edges); the table
		// survives across the instances that share this view.
		walkPort := sc.ports[me]
		if walkPort == nil {
			walkPort = make([]bool, nd.Degree())
			walkPorts := 0
			for p := 0; p < nd.Degree(); p++ {
				if active && inView(nd.NeighborID(p)) && view.EdgeAlive(nd.EdgeID(p)) {
					walkPort[p] = true
					walkPorts++
				}
			}
			sc.ports[me] = walkPort
			sc.portCount[me] = walkPorts
		}
		walkPorts := sc.portCount[me]
		// ---- Walk phase: exactly T0 rounds. ----
		mass := 0.0
		if me == v {
			mass = 1.0
		}
		if mass > 0 {
			sc.markTouched(me)
		}
		gridIdx := 0
		for t := 1; t <= pr.T0; t++ {
			if active && mass > 0 {
				share := mass / (2 * deg)
				for p := 0; p < nd.Degree(); p++ {
					if walkPort[p] {
						nd.Send(p, int64(math.Float64bits(share)))
					}
				}
				mass = mass/2 + share*(deg-float64(walkPorts))
			}
			for _, m := range nd.Next() {
				if active {
					mass += math.Float64frombits(uint64(m.Words[0]))
				}
			}
			// Local truncation.
			if mass > 0 && mass < 2*eps*deg {
				mass = 0
			}
			if mass > 0 {
				sc.markTouched(me)
			}
			if gridIdx < len(tGrid) && tGrid[gridIdx] == t {
				if deg > 0 {
					rhoAt[gridIdx][me] = mass / deg
				}
				gridIdx++
			}
		}
		// ---- Tree phase over touched vertices. ----
		treeBound := pr.T0 + 1
		tree := congest.BFSTree(nd, touched[me], me == v, treeBound, nil)
		// Learn the actual tree depth, then broadcast it so every node
		// schedules the probe phases identically.
		maxDepth := congest.ConvergecastMax(nd, tree, treeBound, []int64{int64(tree.Dist)})
		var dw []int64
		if me == v {
			dw = maxDepth
		}
		dw = congest.BroadcastDown(nd, tree, treeBound, dw)
		probeDepth := treeBound
		if len(dw) > 0 && int(dw[0]) >= 0 {
			probeDepth = int(dw[0])
		}
		// Out-of-tree nodes take no part in the probes; they retire so
		// the probe rounds are counted over the participating subgraph
		// only (the paper's "only the edges in P* participate").
		if !tree.InTree() {
			return
		}
		h := len(thresholds)
		// ---- Probe phase: one pipelined pass per grid time. ----
		for ti := range tGrid {
			// Membership bits for all thresholds, packed locally.
			in := make([]bool, h)
			rho := rhoAt[ti][me]
			for hi, th := range thresholds {
				in[hi] = touched[me] && rho >= th
			}
			var bits int64
			for hi := range in {
				if in[hi] {
					bits |= 1 << uint(hi)
				}
			}
			// One round: exchange all membership bits with neighbors.
			nbr := congest.ExchangeWithNeighbors(nd, true, []int64{bits}, nil)
			// Per-threshold local (vol, cut) contributions.
			vectors := make([][]int64, h)
			for hi := range vectors {
				var volLocal, cutLocal int64
				if in[hi] {
					volLocal = int64(g.Deg(me))
					for p := 0; p < nd.Degree(); p++ {
						if !walkPort[p] {
							continue
						}
						nbrIn := nbr[p] != nil && nbr[p][0]&(1<<uint(hi)) != 0
						if !nbrIn {
							cutLocal++
						}
					}
				}
				vectors[hi] = []int64{volLocal, cutLocal}
			}
			sums := congest.PipelinedConvergecastSum(nd, tree, probeDepth, vectors)
			verdict := int64(-1)
			if me == v {
				for hi := 0; hi < h; hi++ {
					vol := float64(sums[hi][0])
					cut := float64(sums[hi][1])
					if pr.Starred(cut/min(vol, totalVol-vol), thresholds[hi], vol, minVol, totalVol) {
						verdict = int64(hi)
						break
					}
				}
			}
			var vw []int64
			if me == v {
				vw = []int64{verdict}
			}
			vw = congest.BroadcastDown(nd, tree, probeDepth, vw)
			if len(vw) > 0 && vw[0] >= 0 {
				if me == v {
					verdictT, verdictTh = ti, int(vw[0])
				}
				return
			}
		}
	})
	stats := eng.Stats()
	if err != nil {
		return nil, stats, fmt.Errorf("dnibble: %w", err)
	}
	// Materialize the cut and P* host-side from the touched vertices
	// only — the rest of the graph took no part in the walk.
	if verdictT >= 0 {
		res.Steps = tGrid[verdictT]
		th := thresholds[verdictTh]
		for _, u := range sc.touchedList {
			if rhoAt[verdictT][u] >= th {
				res.C.Add(u)
			}
		}
	}
	res.PStar = sc.participating(view)
	return res, stats, nil
}

// geomGrid returns {1, 2, 4, ..., <= t0, t0}.
func geomGrid(t0 int) []int {
	var out []int
	for t := 1; t < t0; t *= 2 {
		out = append(out, t)
	}
	out = append(out, t0)
	return out
}

// thresholdGrid returns the descending geometric rho-threshold family
// from 1 down to gamma / totalVol (the smallest boundary that can still
// satisfy (C.2*)), capped at 62 entries so membership bitmaps fit one
// word.
func thresholdGrid(gamma, totalVol float64) []float64 {
	lo := gamma / totalVol
	if lo <= 0 {
		lo = 1e-12
	}
	var out []float64
	for th := 1.0; th >= lo && len(out) < 62; th /= 2 {
		out = append(out, th)
	}
	return out
}
