// Package route implements the distributed routing data structure the
// paper uses as a black box (Ghaffari–Kuhn–Su, PODC'17): a structure
// built on a low-mixing-time (expander) component that, after a
// preprocessing phase, solves routing instances where each vertex v
// sends and receives O(deg(v)) messages.
//
// The paper only consumes the GKS interface — a preprocessing/query
// trade-off controlled by a parameter k (Section 3: preprocessing
// O(k beta)(log n)^O(k) tau_mix with beta = m^{1/k}, query
// (log n)^O(k) tau_mix) — so this package provides an honest structure
// with the same interface and knob rather than a re-proof of GKS:
//
//   - P ~ m^{1/k} hub vertices are sampled with probability proportional
//     to degree (publicly, via a shared hash, so no coordination rounds).
//   - A pipelined multi-source BFS builds P hub trees in O(P + D) rounds;
//     every vertex learns its parent port and distance per tree.
//   - Every vertex registers itself along its path to its hash-assigned
//     hub tree; intermediate vertices record which port leads down toward
//     it. Registration and queries are store-and-forward with per-edge
//     per-round capacity 1, so their round cost is measured, not assumed.
//   - A query routes each message up its destination's tree until it hits
//     the destination's registration path (at latest, the hub) and then
//     down recorded ports.
//
// More hubs mean more preprocessing (more trees to flood, more
// registration traffic) and less query congestion per tree — the same
// trade-off GKS expose through k. On an expander the trees have depth
// O(log n / phi) and random hub placement spreads query load, so query
// cost stays near the instance's natural congestion. All message traffic
// runs in the congest engine with 2 logical channels: channel 0 carries
// payload, channel 1 the quiescence-detection control traffic (charged in
// CongestRounds).
package route

import (
	"errors"
	"fmt"
	"math"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// Router is a built routing structure over one connected component.
type Router struct {
	view *graph.Sub
	// topo is the reusable CONGEST topology of the view, built once and
	// shared by the tree-build, registration, and every query phase.
	topo     *congest.Topology
	hubs     []int
	hubIdx   map[int]int
	maxDepth int
	// parent[h][v] / dist[h][v]: BFS tree of hub h.
	parent [][]int
	dist   [][]int
	// down[v] maps (hub<<32 | dst) to the port at v leading down toward
	// dst in hub's tree (registration table).
	down []map[int64]int32
	// BuildStats is the preprocessing cost.
	BuildStats congest.Stats
	seed       uint64
	multi      bool
}

// Request is one message to deliver.
type Request struct {
	// Src and Dst are member vertex ids.
	Src, Dst int
	// Payload is the message body (one word).
	Payload int64
}

// Delivery records a message arriving at its destination.
type Delivery struct {
	Dst     int
	Payload int64
}

// ErrNotConnected is returned when the view does not induce a single
// connected component.
var ErrNotConnected = errors.New("route: view must be connected")

// HubCountForK returns the hub count P ~ m^{1/k} implementing the GKS
// trade-off parameter k on a view with m usable edges (at least 1).
func HubCountForK(view *graph.Sub, k int) int {
	m := float64(view.UsableEdgeCount())
	if m < 1 {
		m = 1
	}
	p := int(math.Pow(m, 1/float64(k)))
	if p < 1 {
		p = 1
	}
	if n := view.Members().Len(); p > n {
		p = n
	}
	return p
}

// Options configures Build.
type Options struct {
	// Hubs is the hub count (see HubCountForK).
	Hubs int
	// MultiRegister registers every vertex in every hub tree instead of
	// just its home tree: preprocessing traffic grows by a factor of
	// Hubs, and in exchange a destination's incoming traffic can be
	// spread over all trees, multiplying its receive throughput — the
	// knob heavy-load instances (the triangle workload) need.
	MultiRegister bool
	// Seed drives hub sampling and engine randomness.
	Seed uint64
}

// Build constructs the router with the given hub count, registering each
// vertex in its home tree only. It runs the preprocessing inside the
// CONGEST engine and records its cost in BuildStats.
func Build(view *graph.Sub, hubCount int, seed uint64) (*Router, error) {
	return BuildWithOptions(view, Options{Hubs: hubCount, Seed: seed})
}

// BuildWithOptions constructs the router per the options.
func BuildWithOptions(view *graph.Sub, opt Options) (*Router, error) {
	if !view.IsConnected() {
		return nil, ErrNotConnected
	}
	n := view.Members().Len()
	if n == 0 {
		return nil, ErrNotConnected
	}
	hubCount := opt.Hubs
	if hubCount < 1 {
		hubCount = 1
	}
	if hubCount > n {
		hubCount = n
	}
	rt := &Router{view: view, topo: congest.NewTopology(view), seed: opt.Seed, multi: opt.MultiRegister}
	rt.pickHubs(hubCount)
	first := view.Members().Members()[0]
	apx := view.DiameterApprox(first)
	rt.maxDepth = 2*apx + 2
	if err := rt.buildTrees(); err != nil {
		return nil, err
	}
	if err := rt.register(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Hubs returns the hub vertices (do not modify).
func (rt *Router) Hubs() []int { return rt.hubs }

// pickHubs samples hubCount distinct hubs with probability proportional
// to degree, deterministically in the seed. Hub identity is derived from
// public randomness (the seed plays the role of a shared hash), so
// selection itself costs no communication; announcing it is folded into
// the tree-build flood.
func (rt *Router) pickHubs(hubCount int) {
	members := rt.view.Members().Members()
	weights := make([]float64, len(members))
	for i, v := range members {
		weights[i] = float64(rt.view.Base().Deg(v))
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	r := rng.New(rt.seed)
	chosen := make(map[int]bool, hubCount)
	for len(chosen) < hubCount {
		v := members[r.WeightedIndex(weights)]
		if !chosen[v] {
			chosen[v] = true
			rt.hubs = append(rt.hubs, v)
		}
	}
	rt.hubIdx = make(map[int]int, len(rt.hubs))
	for i, h := range rt.hubs {
		rt.hubIdx[h] = i
	}
}

// buildTrees runs the pipelined multi-source BFS: each round every node
// forwards at most one newly learned (hub, dist) pair per port. With P
// hubs and diameter D this completes within P + 2D + 8 rounds, the
// budget every node runs for.
func (rt *Router) buildTrees() error {
	g := rt.view.Base()
	p := len(rt.hubs)
	rt.parent = make([][]int, p)
	rt.dist = make([][]int, p)
	for h := 0; h < p; h++ {
		rt.parent[h] = make([]int, g.N())
		rt.dist[h] = make([]int, g.N())
		for v := range rt.parent[h] {
			rt.parent[h][v] = -1
			rt.dist[h][v] = -1
		}
	}
	budget := p + 2*rt.maxDepth + 8
	eng := congest.NewEngine(rt.topo, congest.Config{Seed: rt.seed, MaxWords: 2})
	err := eng.Run(func(nd *congest.Node) {
		known := make([]int, p)    // best dist per hub, -1 unknown
		parentOf := make([]int, p) // port toward hub, -1 root/unknown
		for h := range known {
			known[h] = -1
			parentOf[h] = -1
		}
		var pending []int // hub indices to announce, FIFO
		if h, ok := rt.hubIdx[nd.V()]; ok {
			known[h] = 0
			pending = append(pending, h)
		}
		for r := 0; r < budget; r++ {
			if len(pending) > 0 {
				h := pending[0]
				pending = pending[1:]
				nd.SendToAll(int64(h), int64(known[h]))
			}
			for _, m := range nd.Next() {
				h, d := int(m.Words[0]), int(m.Words[1])+1
				if known[h] == -1 || d < known[h] {
					known[h] = d
					parentOf[h] = m.Port
					pending = append(pending, h)
				}
			}
		}
		for h := 0; h < p; h++ {
			rt.parent[h][nd.V()] = parentOf[h]
			rt.dist[h][nd.V()] = known[h]
		}
	})
	if err != nil {
		return fmt.Errorf("route: tree build: %w", err)
	}
	rt.BuildStats.Add(eng.Stats())
	for h := 0; h < p; h++ {
		ok := true
		rt.view.Members().ForEach(func(v int) {
			if rt.dist[h][v] < 0 {
				ok = false
			}
		})
		if !ok {
			return fmt.Errorf("route: hub %d tree incomplete within budget %d", h, budget)
		}
	}
	return nil
}

// HomeHub returns the hub index responsible for vertex v (public hash).
func (rt *Router) HomeHub(v int) int {
	r := rng.New(rt.seed ^ 0x5bd1e995)
	return int(r.Fork(uint64(v)).Uint64() % uint64(len(rt.hubs)))
}

// register sends every vertex's registration up its home hub's tree —
// or up every tree when MultiRegister is set — recording down-ports at
// every intermediate vertex, via the generic store-and-forward phase.
func (rt *Router) register() error {
	g := rt.view.Base()
	rt.down = make([]map[int64]int32, g.N())
	rt.view.Members().ForEach(func(v int) {
		rt.down[v] = make(map[int64]int32)
	})
	treesOf := func(v int) []int {
		if !rt.multi {
			return []int{rt.HomeHub(v)}
		}
		all := make([]int, 0, len(rt.hubs))
		for h := range rt.hubs {
			all = append(all, h)
		}
		return all
	}
	initial := func(v int) []packet {
		var pks []packet
		for _, h := range treesOf(v) {
			if rt.hubs[h] == v {
				continue // hubs are their own registration root
			}
			pks = append(pks, packet{hub: h, dst: v})
		}
		return pks
	}
	handle := func(v int, pk packet, arrivalPort int) (forward int, done bool) {
		// Record the down-port, then continue upward unless at the hub.
		rt.down[v][key(pk.hub, pk.dst)] = int32(arrivalPort)
		if rt.hubs[pk.hub] == v {
			return -1, true
		}
		return rt.parent[pk.hub][v], false
	}
	load := rt.view.Members().Len()
	if rt.multi {
		load *= len(rt.hubs)
	}
	stats, err := rt.runPhase(initial, handle, nil, load)
	if err != nil {
		return fmt.Errorf("route: registration: %w", err)
	}
	rt.BuildStats.Add(stats)
	// Verify: every vertex's registration reached each of its hubs.
	var bad error
	rt.view.Members().ForEach(func(v int) {
		for _, h := range treesOf(v) {
			hub := rt.hubs[h]
			if hub == v {
				continue
			}
			if _, ok := rt.down[hub][key(h, v)]; !ok && bad == nil {
				bad = fmt.Errorf("route: vertex %d not registered at hub %d", v, hub)
			}
		}
	})
	return bad
}

func key(hub, dst int) int64 { return int64(hub)<<32 | int64(uint32(dst)) }
