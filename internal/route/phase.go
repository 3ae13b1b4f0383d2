package route

import (
	"fmt"
	"math"

	"dexpander/internal/congest"
)

// packet is one in-flight routed message.
type packet struct {
	hub     int
	dst     int
	payload int64
}

// handler decides what a vertex does with an arriving packet: forward it
// on the returned port, or consume it (done=true). arrivalPort is -1 for
// packets originating at v.
type handler func(v int, pk packet, arrivalPort int) (forwardPort int, done bool)

// deliverFn observes consumed packets carrying payloads (nil to ignore).
type deliverFn func(v int, pk packet)

// Control messages on channel 1.
const (
	ctlMin  = 0 // subtree quiet-streak minimum, sent to the hub-0 parent
	ctlStop = 1 // the hub-0 root says stop; flooded to every port
)

// phase is the state a routing phase's nodes share.
type phase struct {
	handle    handler
	deliver   deliverFn
	tree0     []int // hub-0 parent port per vertex, -1 at the root
	stopAfter int   // quiet streak at which the root stops the phase
	budget    int   // rounds a node may run before it gives up
	failure   error // first protocol failure, nil if none
}

func (ph *phase) fail(err error) {
	if ph.failure == nil {
		ph.failure = err
	}
}

// fifo is a port's packet queue: a ring buffer whose size is a power of
// two, grown by doubling, so a busy port reuses one buffer.
type fifo struct {
	buf     []packet
	head, n int
}

func (q *fifo) push(pk packet) {
	if q.n == len(q.buf) {
		grown := make([]packet, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = pk
	q.n++
}

func (q *fifo) pop() packet {
	pk := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return pk
}

// phaseNode is one node of a routing phase, run as an engine step.
type phaseNode struct {
	ph     *phase
	nd     *congest.Node
	v      int
	isRoot bool
	queues []fifo // per port
	// childMin is, per port, the subtree minimum last reported by the
	// hub-0 child across it (math.MaxInt before any report).
	childMin  []int
	streak    int  // rounds since this node last sent or received a packet
	round     int  // rounds completed
	active    bool // a packet moved through this node this round
	stopped   bool // the node has sent STOP
	forwarded bool // STOP was forwarded this round; leave after it
}

// runPhase executes a store-and-forward routing phase in the CONGEST
// engine: every member starts with initial(v) packets; each round every
// port transmits the head of its FIFO queue (channel 0). Termination is
// detected distributively on channel 1: nodes continuously converge-cast
// the minimum "quiet streak" of their hub-0 subtree, and the hub-0 root
// floods STOP once the global streak clears the in-flight horizon. The
// reported stats therefore measure the true round cost of the phase,
// including the detection overhead (channel 1 doubles CongestRounds).
// Nodes run as engine steps, so handle and deliver are called on the
// caller's goroutine, in round order and node-index order within a round.
func (rt *Router) runPhase(initial func(v int) []packet, handle handler, deliver deliverFn, extraLoad int) (congest.Stats, error) {
	ph := &phase{
		handle:    handle,
		deliver:   deliver,
		tree0:     rt.parent[0],
		stopAfter: 2*rt.maxDepth + 8,
		// At least 256, so every node runs at least one round.
		budget: 16*rt.view.UsableEdgeCount() + 64*rt.maxDepth + 8*extraLoad + 256,
	}
	eng := congest.NewEngine(rt.topo, congest.Config{Seed: rt.seed ^ 0x9e37, Channels: 2, MaxWords: 4})
	err := eng.RunSteps(func(nd *congest.Node) congest.Step {
		deg := nd.Degree()
		pn := &phaseNode{
			ph: ph, nd: nd, v: nd.V(),
			isRoot:   ph.tree0[nd.V()] == -1,
			queues:   make([]fifo, deg),
			childMin: make([]int, deg),
		}
		for p := range pn.childMin {
			pn.childMin[p] = math.MaxInt
		}
		for _, pk := range initial(pn.v) {
			pn.enqueue(pk, -1)
		}
		pn.send()
		return pn.step
	})
	if err != nil {
		return eng.Stats(), err
	}
	return eng.Stats(), ph.failure
}

// enqueue consumes pk at the node or queues it on the port it leaves by.
func (pn *phaseNode) enqueue(pk packet, arrival int) {
	port, done := pn.ph.handle(pn.v, pk, arrival)
	switch {
	case done:
		if pn.ph.deliver != nil {
			pn.ph.deliver(pn.v, pk)
		}
	case port < 0 || port >= len(pn.queues):
		pn.ph.fail(fmt.Errorf("route: vertex %d routed packet for %d to invalid port %d", pn.v, pk.dst, port))
	default:
		pn.queues[port].push(pk)
	}
}

// send stages a round: each port's queue head on channel 0, and on
// channel 1 the subtree quiet-streak minimum upward (or, at the root once
// it clears the horizon, STOP to every port).
func (pn *phaseNode) send() {
	pn.active = false
	for p := range pn.queues {
		if pn.queues[p].n > 0 {
			pk := pn.queues[p].pop()
			pn.nd.SendOn(0, p, int64(pk.hub), int64(pk.dst), pk.payload)
			pn.active = true
		}
	}
	min := pn.streak
	for _, m := range pn.childMin {
		if m < min {
			min = m
		}
	}
	if !pn.isRoot {
		pn.nd.SendOn(1, pn.ph.tree0[pn.v], ctlMin, int64(min))
	} else if min >= pn.ph.stopAfter {
		pn.stop()
	}
}

// stop floods STOP to every port.
func (pn *phaseNode) stop() {
	for p := range pn.queues {
		pn.nd.SendOn(1, p, ctlStop, 0)
	}
	pn.stopped = true
}

// step handles a round's inbox and stages the next round, until STOP (or
// the budget) ends the node's phase.
func (pn *phaseNode) step(in []congest.Incoming) bool {
	if pn.forwarded {
		// The round that forwarded STOP is the node's last; what arrived
		// in it is dropped.
		pn.leave()
		return true
	}
	sawStop := false
	for _, m := range in {
		switch m.Ch {
		case 0:
			pn.active = true
			pn.enqueue(packet{hub: int(m.Words[0]), dst: int(m.Words[1]), payload: m.Words[2]}, m.Port)
		case 1:
			switch m.Words[0] {
			case ctlMin:
				pn.childMin[m.Port] = int(m.Words[1])
			case ctlStop:
				sawStop = true
			}
		}
	}
	if sawStop && !pn.stopped {
		pn.stop()
		pn.forwarded = true
		return false
	}
	if pn.active {
		pn.streak = 0
	} else {
		pn.streak++
	}
	if pn.round++; pn.round >= pn.ph.budget || pn.stopped {
		pn.leave()
		return true
	}
	pn.send()
	return false
}

// leave checks the node's final state: the phase must finish its traffic
// before STOP, within the budget.
func (pn *phaseNode) leave() {
	if !pn.stopped {
		pn.ph.fail(fmt.Errorf("route: phase budget %d exhausted at vertex %d", pn.ph.budget, pn.v))
	}
	for p := range pn.queues {
		if n := pn.queues[p].n; n > 0 {
			pn.ph.fail(fmt.Errorf("route: vertex %d stopped with %d queued packets", pn.v, n))
			break
		}
	}
}
