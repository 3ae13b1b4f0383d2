package ldd

import (
	"fmt"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
)

// DistDecompose runs the full LowDiamDecomposition(beta) pipeline of
// Theorem 4 in the CONGEST simulator:
//
//  1. A-ball edge counting by the pipelined set-exchange of Lemma 14
//     with overflow threshold tau = ceil(m/(2B)) (an overflow already
//     certifies density, so sampling per Lemmas 15/16 is unnecessary at
//     this threshold).
//  2. Big-ball counts |E(N^RBig(v))| by leader election and a
//     convergecast over depth-capped BFS trees: with the radius capped
//     at RBig the cost stays poly(log n, 1/beta) — the theorem's
//     no-diameter-time property — and the count is exact whenever
//     RBig exceeds the component diameter (always, at the parameter
//     scales the decomposition is used at; a binding cap is a documented
//     approximation).
//  3. The W-merge of Appendix B.1 with per-iteration fixed budgets
//     O(A*B) and exactly 2B+2 iterations, matching Lemma 21's O(ab^2)
//     without global termination detection.
//  4. The distributed Clustering(beta), then the local cut rule (drop
//     inter-cluster edges with a V_S endpoint).
//
// Round costs of all phases are measured by the engine and summed.
func DistDecompose(view *graph.Sub, pr Params, seed uint64) (*Result, congest.Stats, error) {
	g := view.Base()
	n := g.N()
	var total congest.Stats
	// One reusable topology backs every phase (and every W-merge
	// iteration) instead of paying O(m) reconstruction per engine run.
	topo := congest.NewTopology(view)

	// ---- Phase 1: |E(N^A(v))| with overflow threshold tau. ----
	m := view.UsableEdgeCount()
	tau := m/(2*pr.B) + 1
	smallCount, overflow, stats, err := distBallEdges(topo, view, pr.A, tau, seed)
	if err != nil {
		return nil, total, fmt.Errorf("ldd: ball counting: %w", err)
	}
	total.Add(stats)

	// ---- Phase 2: component edge totals within radius RBig. ----
	bigCount, stats, err := distComponentEdges(topo, view, pr.RBig, seed^0x5ca1ab1e)
	if err != nil {
		return nil, total, fmt.Errorf("ldd: big-ball counting: %w", err)
	}
	total.Add(stats)

	// Local density decision (V'_D vs V'_S).
	vdPrime := graph.NewVSet(n)
	view.Members().ForEach(func(v int) {
		dense := overflow[v] ||
			float64(smallCount[v]) >= float64(bigCount[v])/(2*float64(pr.B))
		if dense {
			vdPrime.Add(v)
		}
	})

	// ---- Phase 3: W-merge with fixed budgets. ----
	vd, stats, err := distWMerge(topo, view, vdPrime, pr, seed^0x3133731)
	if err != nil {
		return nil, total, fmt.Errorf("ldd: W-merge: %w", err)
	}
	total.Add(stats)
	vs := VSFromVD(view, vd)

	// ---- Phase 4: clustering and the cut rule. ----
	clusters, stats, err := distClusteringOn(topo, view, pr, seed^0xc105732)
	if err != nil {
		return nil, total, fmt.Errorf("ldd: clustering: %w", err)
	}
	total.Add(stats)
	res := cutWithVDVS(view, clusters, vd, vs)
	return res, total, nil
}

// distBallEdges implements Lemma 14: after A phases of tau+1 rounds
// each, every vertex knows E(N^A(v)) exactly if it has at most tau
// edges, or that it overflows. Edges travel as (u, w) id pairs.
func distBallEdges(topo *congest.Topology, view *graph.Sub, radius, tau int, seed uint64) (count []int64, overflow []bool, stats congest.Stats, err error) {
	g := view.Base()
	n := g.N()
	count = make([]int64, n)
	overflow = make([]bool, n)
	eng := congest.NewEngine(topo, congest.Config{Seed: seed, MaxWords: 2})
	err = eng.Run(func(nd *congest.Node) {
		me := nd.V()
		type edgeKey int64
		known := make(map[edgeKey][2]int32)
		over := false
		add := func(u, w int32) {
			if over {
				return
			}
			if u > w {
				u, w = w, u
			}
			k := edgeKey(int64(u)<<32 | int64(uint32(w)))
			if _, ok := known[k]; ok {
				return
			}
			known[k] = [2]int32{u, w}
			if len(known) > tau {
				over = true
			}
		}
		for p := 0; p < nd.Degree(); p++ {
			add(int32(me), int32(nd.NeighborID(p)))
		}
		const star = -1
		for phase := 0; phase < radius; phase++ {
			// Stream the set held at the start of the phase (or the
			// overflow marker) to every neighbor, one item per round, for
			// tau+1 rounds. An overflow learned during the phase is sent
			// from the next phase on, so what a neighbor learns does not
			// depend on the order messages arrive in.
			sendOver := over
			items := make([][2]int32, 0, len(known))
			if !sendOver {
				for _, e := range known {
					items = append(items, e)
				}
			}
			for r := 0; r <= tau; r++ {
				switch {
				case sendOver && r == 0:
					for p := 0; p < nd.Degree(); p++ {
						nd.Send(p, star, star)
					}
				case !sendOver && r < len(items):
					for p := 0; p < nd.Degree(); p++ {
						nd.Send(p, int64(items[r][0]), int64(items[r][1]))
					}
				}
				for _, msg := range nd.Next() {
					if msg.Words[0] == star {
						over = true
						continue
					}
					add(int32(msg.Words[0]), int32(msg.Words[1]))
				}
			}
		}
		// The learned set holds every edge with an endpoint within
		// distance A (each phase pushes sets one hop). |E(N^A(v))|
		// wants both endpoints inside the ball: recover distances by a
		// local BFS over the learned edges — all ball-internal edges
		// were learned, so distances up to A are exact — and filter.
		if over {
			overflow[me] = true
			return
		}
		adj := make(map[int32][]int32)
		for _, e := range known {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		dist := map[int32]int{int32(me): 0}
		queue := []int32{int32(me)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if dist[u] >= radius {
				continue
			}
			for _, w := range adj[u] {
				if _, ok := dist[w]; !ok {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		var cnt int64
		for _, e := range known {
			du, okU := dist[e[0]]
			dw, okW := dist[e[1]]
			if okU && okW && du <= radius && dw <= radius {
				cnt++
			}
		}
		count[me] = cnt
	})
	return count, overflow, eng.Stats(), err
}

// distComponentEdges elects a min-id leader per component (depth-capped
// flood), builds a BFS tree from it, and convergecasts the usable edge
// count, broadcasting the total back down. Vertices beyond the cap from
// their leader keep a partial count.
func distComponentEdges(topo *congest.Topology, view *graph.Sub, capRadius int, seed uint64) ([]int64, congest.Stats, error) {
	g := view.Base()
	n := g.N()
	out := make([]int64, n)
	eng := congest.NewEngine(topo, congest.Config{Seed: seed, MaxWords: 2})
	err := eng.Run(func(nd *congest.Node) {
		me := nd.V()
		// Min-id leader: flood max of (-id) == min id, encoded as
		// n - id to keep Flood's max semantics.
		win := congest.Flood(nd, true, true, []int64{int64(n - me)}, capRadius, nil)
		leader := me
		if len(win) > 0 {
			leader = n - int(win[0])
		}
		tree := congest.BFSTree(nd, true, leader == me, capRadius, nil)
		// Each vertex contributes half-degrees so edges count once;
		// loops excluded by the engine's topology. Use alive degree
		// within the view, doubled to stay integral.
		local := int64(nd.Degree())
		sums := congest.ConvergecastSum(nd, tree, capRadius, []int64{local})
		var words []int64
		if leader == me {
			words = []int64{sums[0] / 2}
		}
		down := congest.BroadcastDown(nd, tree, capRadius, words)
		if len(down) > 0 {
			out[me] = down[0]
		} else {
			out[me] = local / 2
		}
	})
	return out, eng.Stats(), err
}

// distWMerge runs the W-iteration with fixed budgets: in each of 2B+2
// iterations, W-components agree on a min-id label (bounded flood over
// the W-subgraph), spread (label, dist) waves to radius A, detect
// foreign labels meeting within distance A, and absorb the a-ball of
// flagged components. The initial W_0 is the A-ball of V'_D.
func distWMerge(topo *congest.Topology, view *graph.Sub, vdPrime *graph.VSet, pr Params, seed uint64) (*graph.VSet, congest.Stats, error) {
	g := view.Base()
	n := g.N()
	var total congest.Stats

	// W_0 via a single distributed wave from V'_D.
	inW := make([]bool, n)
	eng := congest.NewEngine(topo, congest.Config{Seed: seed, MaxWords: 2})
	err := eng.Run(func(nd *congest.Node) {
		me := nd.V()
		res := congest.Flood(nd, true, vdPrime.Has(me), []int64{1}, pr.A, nil)
		inW[me] = len(res) > 0
	})
	total.Add(eng.Stats())
	if err != nil {
		return nil, total, err
	}

	labelBudget := 12*pr.A*pr.B + 2*pr.A + 16
	if labelBudget > 6*n {
		labelBudget = 6 * n
	}
	for iter := 0; iter < 2*pr.B+2; iter++ {
		w := graph.NewVSet(n)
		for v, in := range inW {
			if in && view.Has(v) {
				w.Add(v)
			}
		}
		if w.Empty() {
			break
		}
		changed, stats, err := wMergeIteration(topo, view, w, pr, labelBudget, seed^uint64(iter+1)*0x9e37)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		if changed == nil {
			break // fixpoint
		}
		inW = changed
	}
	out := graph.NewVSet(n)
	for v, in := range inW {
		if in && view.Has(v) {
			out.Add(v)
		}
	}
	return out, total, nil
}

// wMergeIteration performs one W-merge round distributively. It returns
// the new membership, or nil when nothing changed.
func wMergeIteration(topo *congest.Topology, view *graph.Sub, w *graph.VSet, pr Params, labelBudget int, seed uint64) ([]bool, congest.Stats, error) {
	g := view.Base()
	n := g.N()
	next := make([]bool, n)
	anyJoin := make([]bool, n)
	eng := congest.NewEngine(topo, congest.Config{Seed: seed, MaxWords: 3})
	err := eng.Run(func(nd *congest.Node) {
		me := nd.V()
		inW := w.Has(me)
		next[me] = inW
		// (a) Component labels: min-id flood restricted to W members
		// (non-members stay silent, so labels never cross components).
		lw := congest.Flood(nd, inW, inW, []int64{int64(n - me)}, labelBudget, nil)
		label := int64(-1)
		if inW && len(lw) > 0 {
			label = int64(n) - lw[0]
		}
		// (b) Ball wave: W members emit (label, dist=0); everyone
		// forwards improved (label, dist) pairs up to distance A,
		// pipelined one update per port per round.
		best := make(map[int64]int64) // label -> best dist known
		var queue [][2]int64
		if inW && label >= 0 {
			best[label] = 0
			queue = append(queue, [2]int64{label, 0})
		}
		waveBudget := pr.A + 16
		for r := 0; r < waveBudget; r++ {
			if len(queue) > 0 {
				item := queue[0]
				queue = queue[1:]
				if item[1] < int64(pr.A) {
					for p := 0; p < nd.Degree(); p++ {
						nd.Send(p, item[0], item[1])
					}
				}
			}
			for _, m := range nd.Next() {
				lab, dist := m.Words[0], m.Words[1]+1
				if cur, ok := best[lab]; !ok || dist < cur {
					best[lab] = dist
					queue = append(queue, [2]int64{lab, dist})
				}
			}
		}
		// (c) Merge detection: two labels within combined distance A
		// meet here. Flag every such label pair.
		var flagged []int64
		labs := make([]int64, 0, len(best))
		for lab := range best {
			labs = append(labs, lab)
		}
		for i := 0; i < len(labs); i++ {
			for j := i + 1; j < len(labs); j++ {
				if best[labs[i]]+best[labs[j]] <= int64(pr.A) {
					flagged = append(flagged, labs[i], labs[j])
				}
			}
		}
		// (d) Flag flood: flagged labels propagate (pipelined) so every
		// vertex within distance A of a flagged component learns it.
		flagSet := make(map[int64]bool)
		var fq []int64
		for _, f := range flagged {
			if !flagSet[f] {
				flagSet[f] = true
				fq = append(fq, f)
			}
		}
		flagBudget := labelBudget + pr.A + 16
		for r := 0; r < flagBudget; r++ {
			if len(fq) > 0 {
				f := fq[0]
				fq = fq[1:]
				for p := 0; p < nd.Degree(); p++ {
					nd.Send(p, f)
				}
			}
			for _, m := range nd.Next() {
				f := m.Words[0]
				if !flagSet[f] {
					flagSet[f] = true
					fq = append(fq, f)
				}
			}
		}
		// (e) Join: any vertex within distance A of a flagged
		// component joins W.
		for lab, dist := range best {
			if flagSet[lab] && dist <= int64(pr.A) && !inW {
				next[me] = true
				anyJoin[me] = true
			}
		}
	})
	if err != nil {
		return nil, eng.Stats(), err
	}
	joined := false
	for _, j := range anyJoin {
		if j {
			joined = true
			break
		}
	}
	if !joined {
		return nil, eng.Stats(), nil
	}
	return next, eng.Stats(), nil
}
