package congest

import (
	"sort"

	"dexpander/internal/graph"
)

// port is one endpoint's view of a communication link.
type port struct {
	peerNode int // dense node index of the other endpoint
	peerPort int // index of the reverse port at the peer
	neighbor int // global vertex id of the other endpoint
	edge     int // base-graph edge id, or -1 for clique links
}

// Topology is the immutable communication structure an Engine runs over:
// the member set, the ports of every node, the symmetric port pairing,
// and a neighbor-to-port index. Building one costs O(n + m); once built
// it can back any number of Engine runs (sequentially or concurrently),
// which is how multi-stage protocols avoid paying the construction cost
// per stage.
type Topology struct {
	nodeOf   []int // global vertex id -> dense node index, -1 if not a member
	vertexOf []int // dense node index -> global vertex id

	// Graph mode: CSR port storage plus a per-node neighbor index sorted
	// by vertex id for O(log deg) PortOf lookups without a map.
	portOff   []int32 // len nodes+1
	ports     []port
	nbrSorted []int32 // neighbor vertex ids, sorted within each node's range
	nbrPort   []int32 // port index parallel to nbrSorted

	// Clique mode: every pair of the cliqueN nodes is linked and ports
	// are pure arithmetic (node i's port p leads to j = p, or p+1 when
	// p >= i), so the topology needs no O(n^2) storage at all.
	cliqueN int
}

// NewTopology builds the reusable topology of the usable part of the
// given view: nodes are member vertices and links are usable edges
// (self-loops excluded — a node needs no channel to itself). Port
// numbering at each node follows base-graph edge id order, and both
// endpoints of an edge agree on the pairing.
func NewTopology(view *graph.Sub) *Topology {
	g := view.Base()
	t := &Topology{nodeOf: make([]int, g.N())}
	for v := range t.nodeOf {
		t.nodeOf[v] = -1
	}
	view.Members().ForEach(func(v int) {
		t.nodeOf[v] = len(t.vertexOf)
		t.vertexOf = append(t.vertexOf, v)
	})
	n := len(t.vertexOf)
	// Pass 1: per-node port counts.
	deg := make([]int32, n)
	for ed := 0; ed < g.M(); ed++ {
		if !view.Usable(ed) || g.IsLoop(ed) {
			continue
		}
		u, v := g.EdgeEndpoints(ed)
		deg[t.nodeOf[u]]++
		deg[t.nodeOf[v]]++
	}
	t.portOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		t.portOff[i+1] = t.portOff[i] + deg[i]
	}
	// Pass 2: fill ports in edge-id order (matching the pass-1 counts).
	t.ports = make([]port, t.portOff[n])
	next := make([]int32, n)
	for ed := 0; ed < g.M(); ed++ {
		if !view.Usable(ed) || g.IsLoop(ed) {
			continue
		}
		u, v := g.EdgeEndpoints(ed)
		nu, nv := t.nodeOf[u], t.nodeOf[v]
		pu, pv := next[nu], next[nv]
		next[nu]++
		next[nv]++
		t.ports[t.portOff[nu]+pu] = port{peerNode: nv, peerPort: int(pv), neighbor: v, edge: ed}
		t.ports[t.portOff[nv]+pv] = port{peerNode: nu, peerPort: int(pu), neighbor: u, edge: ed}
	}
	// Neighbor index: (vertex id, port) pairs sorted per node.
	t.nbrSorted = make([]int32, len(t.ports))
	t.nbrPort = make([]int32, len(t.ports))
	for i := 0; i < n; i++ {
		lo, hi := t.portOff[i], t.portOff[i+1]
		for p := lo; p < hi; p++ {
			t.nbrSorted[p] = int32(t.ports[p].neighbor)
			t.nbrPort[p] = p - lo
		}
		seg := t.nbrSorted[lo:hi]
		prt := t.nbrPort[lo:hi]
		sort.Sort(&nbrIndex{seg, prt})
	}
	return t
}

// NewCliqueTopology builds the CONGESTED-CLIQUE topology over n nodes
// with global vertex ids 0..n-1: every pair of nodes is connected by a
// link. Ports are computed arithmetically, so the topology itself uses
// O(n) memory regardless of the n^2/2 links it describes.
func NewCliqueTopology(n int) *Topology {
	t := &Topology{cliqueN: n, nodeOf: make([]int, n), vertexOf: make([]int, n)}
	for v := 0; v < n; v++ {
		t.nodeOf[v] = v
		t.vertexOf[v] = v
	}
	return t
}

// NumNodes returns the number of participating nodes.
func (t *Topology) NumNodes() int { return len(t.vertexOf) }

// degree returns the port count of dense node i.
func (t *Topology) degree(i int) int {
	if t.cliqueN > 0 {
		return t.cliqueN - 1
	}
	return int(t.portOff[i+1] - t.portOff[i])
}

// portAt returns port p of dense node i.
func (t *Topology) portAt(i, p int) port {
	if t.cliqueN > 0 {
		// Port p of node i is j = p (or p+1 when p >= i); the reverse
		// port of i at node j is i (or i-1 when i > j).
		j := p
		if p >= i {
			j = p + 1
		}
		rev := i
		if i > j {
			rev = i - 1
		}
		return port{peerNode: j, peerPort: rev, neighbor: j, edge: -1}
	}
	return t.ports[int(t.portOff[i])+p]
}

// portOf returns the port of dense node i leading to the given global
// neighbor vertex id, or -1 if there is no such link.
func (t *Topology) portOf(i, neighbor int) int {
	if t.cliqueN > 0 {
		if neighbor < 0 || neighbor >= t.cliqueN || neighbor == i {
			return -1
		}
		if neighbor < i {
			return neighbor
		}
		return neighbor - 1
	}
	lo, hi := int(t.portOff[i]), int(t.portOff[i+1])
	seg := t.nbrSorted[lo:hi]
	k := sort.Search(len(seg), func(j int) bool { return seg[j] >= int32(neighbor) })
	if k < len(seg) && seg[k] == int32(neighbor) {
		return int(t.nbrPort[lo+k])
	}
	return -1
}

// nbrIndex sorts a node's (neighbor, port) pairs by neighbor id.
type nbrIndex struct {
	nbr  []int32
	port []int32
}

func (x *nbrIndex) Len() int           { return len(x.nbr) }
func (x *nbrIndex) Less(i, j int) bool { return x.nbr[i] < x.nbr[j] }
func (x *nbrIndex) Swap(i, j int) {
	x.nbr[i], x.nbr[j] = x.nbr[j], x.nbr[i]
	x.port[i], x.port[j] = x.port[j], x.port[i]
}
