package congest

import "fmt"

import "dexpander/internal/rng"

// Node is one vertex's handle onto the simulation. All methods must be
// called only from the node's own program: its goroutine under Run, its
// start and steps under RunSteps.
type Node struct {
	eng  *Engine
	topo *Topology
	v    int
	idx  int
	rng  *rng.RNG

	out       []outMsg   // this round's staged messages, in staging order
	in        []Incoming // inbox filled by the last delivery
	round     int
	sentStamp []int32 // per (channel*port): round of last send, -1 never

	// arena double-buffers this node's outgoing payload words: words
	// staged in round r live in arena[r&1], which is recycled when the
	// node first sends in round r+2 — by then every receiver's claim
	// (valid until its round r+1 ends) has expired. arenaUsed words of
	// arena[arenaRound&1] are staged; the slices only grow, so staging
	// writes no slice header (and no pointer) on its fast path.
	arena      [2][]int64
	arenaRound int
	arenaUsed  int
}

// V returns the node's global vertex id.
func (n *Node) V() int { return n.v }

// Degree returns the number of communication ports (usable incident
// edges, or n-1 in clique mode).
func (n *Node) Degree() int { return n.topo.degree(n.idx) }

// NeighborID returns the global vertex id across the given port.
func (n *Node) NeighborID(p int) int { return n.topo.portAt(n.idx, p).neighbor }

// EdgeID returns the base-graph edge id of the given port (-1 in clique
// mode).
func (n *Node) EdgeID(p int) int { return n.topo.portAt(n.idx, p).edge }

// PortOf returns the port leading to the given neighbor vertex id, or -1
// if there is no such link.
func (n *Node) PortOf(neighbor int) int { return n.topo.portOf(n.idx, neighbor) }

// Rand returns the node's private random stream (the model's unlimited
// local random bits, deterministically derived from the engine seed and
// the vertex id).
func (n *Node) Rand() *rng.RNG { return n.rng }

// Round returns the number of completed rounds at this node.
func (n *Node) Round() int { return n.round }

// Send stages a message on channel 0 for delivery at the end of the
// round. A node may send at most one message per (port, channel) per
// round, of at most MaxWords words; violating either is a programming
// error and aborts the run.
func (n *Node) Send(port int, words ...int64) { n.SendOn(0, port, words...) }

// SendOn stages a message on the given logical channel. The words are
// copied into the node's arena, so the caller's slice is free to reuse.
func (n *Node) SendOn(ch, port int, words ...int64) {
	n.checkFail()
	deg := n.topo.degree(n.idx)
	if ch < 0 || ch >= n.eng.cfg.Channels {
		panic(fmt.Sprintf("channel %d out of range [0,%d)", ch, n.eng.cfg.Channels))
	}
	if port < 0 || port >= deg {
		panic(fmt.Sprintf("port %d out of range [0,%d)", port, deg))
	}
	if len(words) > n.eng.cfg.MaxWords {
		panic(fmt.Sprintf("message of %d words exceeds MaxWords=%d (bandwidth violation)",
			len(words), n.eng.cfg.MaxWords))
	}
	slot := ch*deg + port
	if n.sentStamp[slot] == int32(n.round) {
		panic(fmt.Sprintf("double send on port %d channel %d in round %d (bandwidth violation)",
			port, ch, n.round))
	}
	n.sentStamp[slot] = int32(n.round)
	off := n.stage(words)
	pt := n.topo.portAt(n.idx, port)
	n.out = append(n.out, outMsg{
		peerNode: int32(pt.peerNode),
		peerPort: int32(pt.peerPort),
		ch:       int32(ch),
		off:      off,
		n:        int32(len(words)),
	})
}

// SendToAll stages the same message on channel 0 to every port. The
// payload is staged once and shared by every copy, so broadcasting costs
// one arena write regardless of degree.
func (n *Node) SendToAll(words ...int64) {
	n.checkFail()
	deg := n.topo.degree(n.idx)
	if deg == 0 {
		return
	}
	if len(words) > n.eng.cfg.MaxWords {
		panic(fmt.Sprintf("message of %d words exceeds MaxWords=%d (bandwidth violation)",
			len(words), n.eng.cfg.MaxWords))
	}
	round := int32(n.round)
	for p := 0; p < deg; p++ {
		if n.sentStamp[p] == round {
			panic(fmt.Sprintf("double send on port %d channel 0 in round %d (bandwidth violation)",
				p, n.round))
		}
		n.sentStamp[p] = round
	}
	off := n.stage(words)
	for p := 0; p < deg; p++ {
		pt := n.topo.portAt(n.idx, p)
		n.out = append(n.out, outMsg{peerNode: int32(pt.peerNode), peerPort: int32(pt.peerPort), off: off, n: int32(len(words))})
	}
}

// stage copies words into the round's arena buffer and returns their
// offset there. The arena double-buffers by round parity: the buffer
// recycled here was last written two rounds ago, so every receiver's
// claim on it (valid until its next round ended) has already expired.
func (n *Node) stage(words []int64) int32 {
	a := &n.arena[n.round&1]
	if n.arenaRound != n.round {
		n.arenaRound, n.arenaUsed = n.round, 0
	}
	off := n.arenaUsed
	if end := off + len(words); end > len(*a) {
		// Grow, keeping this round's words: staged messages refer to
		// them by offset.
		grown := make([]int64, max(2*len(*a), end, 8))
		copy(grown, (*a)[:off])
		*a = grown
	}
	n.arenaUsed += copy((*a)[off:], words)
	return int32(off)
}

// staged returns the payload of a message this node staged in the
// current round.
func (n *Node) staged(m outMsg) []int64 {
	end := m.off + m.n
	return n.arena[n.round&1][m.off:end:end]
}

// Next completes the current round under Run: it blocks until every live
// node has called Next (or returned), then returns the messages delivered
// to this node. The returned slice is valid until the following call to
// Next. Under RunSteps a step ends its round by returning, and calling
// Next fails the run.
func (n *Node) Next() []Incoming {
	if n.eng.stepping {
		panic("congest: Next called under RunSteps (a step ends its round by returning)")
	}
	n.checkFail()
	n.bumpRound()
	return n.in
}

func (n *Node) bumpRound() {
	n.eng.bar.wait(n.idx)
	n.round++
}

func (n *Node) checkFail() {
	if !n.eng.failed.Load() {
		return
	}
	n.eng.failMu.Lock()
	err := n.eng.fail
	n.eng.failMu.Unlock()
	// Unwind this node's goroutine; Run reports the root cause.
	panic(err)
}
