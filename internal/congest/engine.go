// Package congest simulates the synchronous CONGEST model of distributed
// computing on top of a graph view.
//
// Each member vertex of the communication graph runs the same program
// (SPMD). Time advances in rounds: a node stages messages with Send, and
// once every live node has finished the round the engine delivers all
// staged messages and starts the next one. This mirrors the model
// exactly: per round, each edge carries at most one message of at most
// MaxWords machine words per logical channel, in each direction, and
// violations are programming errors that abort the run.
//
// # Two drivers
//
// An engine runs a program in one of two forms; both share delivery,
// arenas, Stats, MaxRounds and failure reporting, so a protocol's output
// does not depend on the form it is written in.
//
//   - RunSteps takes a program as a step function per node and runs every
//     node on the caller's goroutine. start runs a node's code up to the
//     end of its first round and returns the node's Step (nil if the node
//     is already done); each later round the engine calls every live
//     node's step once, in node-index order, with the inbox delivered at
//     the end of the previous round. The inbox is valid until the step
//     returns, and a step never calls Next: it returns to end its round.
//     Busy loop-shaped protocols (the router's tree build and
//     store-and-forward phases, the naive and CONGESTED-CLIQUE triangle
//     baselines) run this way, with no goroutine switch per node-round.
//   - Run takes a straight-line program that calls Next to end each round,
//     and runs every node in its own goroutine; Next blocks at a round
//     barrier until every live node has called Next (or returned). It
//     serves the protocols composed from Next-calling helpers (BFSTree,
//     the convergecasts, the distributed walk and LDD), at the cost of two
//     goroutine switches per node-round.
//
// # Topology and Engine
//
// The simulation substrate is split in two. A Topology (NewTopology,
// NewCliqueTopology) is the immutable communication structure — member
// set, ports, symmetric port pairing, neighbor-to-port index — built once
// in O(n + m) and reusable across any number of runs, so multi-stage
// protocols (the router's build/register/query phases, the sparse-cut
// partition loop) pay construction once instead of per stage. An Engine
// (NewEngine) is the cheap per-run object holding round state, staged
// traffic, and Stats; it is single-use: construct, run once, read Stats.
// New and NewClique remain as one-shot conveniences that build both.
//
// # Delivery order and arena lifetime
//
// Delivery is deterministic: at the end of each round one goroutine moves
// every staged message into its receiver's inbox, walking senders in
// node-index order, so each inbox holds messages ordered by sender node
// index first and, per sender, by the order the sender staged them. The
// order — and Stats — are identical across runs and drivers and
// independent of goroutine scheduling and of how many processors the run
// has, so seeded executions reproduce bit-identically.
//
// Message payloads live in per-node word arenas that the engine recycles
// every other round (double buffering), so the steady-state message path
// allocates nothing. The contract is the one Incoming documents: a
// received Words slice is valid until the receiving node's round ends
// (its next Next, or the return of the step it was passed to), after
// which its backing storage may be reused; copy it to keep it longer.
//
// Logical channels model the paper's multiplexed executions (e.g. up to w
// simultaneous ApproximateNibble instances share edges, Lemma 10): running
// with Channels = w is accounted as w-fold round inflation in
// Stats.CongestRounds, which is how the paper charges it.
//
// A Clique engine (NewClique) provides the CONGESTED-CLIQUE variant where
// every pair of nodes is connected, used by the Dolev–Lenzen–Peled triangle
// baseline.
package congest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// Config controls an engine run.
type Config struct {
	// MaxWords is the maximum number of 64-bit words per message
	// (the model's O(log n) bits). Defaults to 4.
	MaxWords int
	// Channels is the number of logical channels per edge per round.
	// Defaults to 1. CongestRounds is inflated by this factor.
	Channels int
	// MaxRounds aborts the run when exceeded (protects tests from
	// livelock). Defaults to 10,000,000.
	MaxRounds int
	// Seed derives every node's private random stream.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MaxWords <= 0 {
		c.MaxWords = 4
	}
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 10_000_000
	}
	return c
}

// Stats summarizes the cost of a run.
type Stats struct {
	// Rounds is the number of synchronous rounds (deliveries).
	Rounds int
	// CongestRounds is Rounds multiplied by the channel width: the cost
	// in the unmultiplexed CONGEST model.
	CongestRounds int
	// Messages is the total number of point-to-point messages delivered.
	Messages int64
	// Words is the total number of payload words delivered.
	Words int64
}

// Add accumulates other into s (used when a protocol runs in stages).
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.CongestRounds += other.CongestRounds
	s.Messages += other.Messages
	s.Words += other.Words
}

// CombineParallel folds in the cost of a protocol that ran simultaneously
// with s on a vertex-disjoint part of the network: the synchronous clock
// advances in lockstep, so rounds (and channel-inflated rounds,
// independently — the widest channel need not belong to the longest run)
// combine as the maximum, while traffic flows on disjoint edges and sums.
// This is how the paper charges sibling components in Theorems 1 and 2.
func (s *Stats) CombineParallel(other Stats) {
	if other.Rounds > s.Rounds {
		s.Rounds = other.Rounds
	}
	if other.CongestRounds > s.CongestRounds {
		s.CongestRounds = other.CongestRounds
	}
	s.Messages += other.Messages
	s.Words += other.Words
}

// outMsg is a staged outgoing message, already resolved to its receiver.
// It holds no pointer, so staging one costs no GC write barrier.
type outMsg struct {
	peerNode int32
	peerPort int32
	ch       int32
	off, n   int32 // the payload: n words at off in the sender's arena
}

// Incoming is a delivered message as seen by the receiving node.
type Incoming struct {
	// Port is the receiving node's port the message arrived on.
	Port int
	// Ch is the logical channel.
	Ch int
	// Words is the payload; valid until the node's round ends (its next
	// Next, or the return of the step it was passed to).
	Words []int64
}

// Engine simulates one run of a node program over a Topology.
// An Engine is single-use: construct, Run or RunSteps once, read Stats.
type Engine struct {
	cfg   Config
	topo  *Topology
	nodes []Node
	bar   barrier // Run only
	// stepping is set for a RunSteps run, where Next is an error.
	stepping bool
	stats    Stats
	failMu   sync.Mutex
	fail     error
	failed   atomic.Bool
}

// NewEngine builds a fresh single-run engine over the topology. This is
// the cheap path multi-stage protocols use: all O(m) structure lives in
// the Topology, so per-run setup is O(n + total ports) slice zeroing with
// a handful of allocations.
func NewEngine(t *Topology, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	n := t.NumNodes()
	e := &Engine{cfg: cfg, topo: t}
	e.nodes = make([]Node, n)
	// One arena per allocation site, shared across nodes via subslicing.
	totalPorts := 0
	for i := 0; i < n; i++ {
		totalPorts += t.degree(i)
	}
	stamps := make([]int32, totalPorts*cfg.Channels)
	for i := range stamps {
		stamps[i] = -1
	}
	root := rng.New(cfg.Seed)
	off := 0
	for i := 0; i < n; i++ {
		nd := &e.nodes[i]
		deg := t.degree(i)
		nd.eng = e
		nd.topo = t
		nd.v = t.vertexOf[i]
		nd.idx = i
		nd.rng = root.Fork(uint64(nd.v))
		nd.sentStamp = stamps[off : off+deg*cfg.Channels]
		nd.arenaRound = -1
		off += deg * cfg.Channels
	}
	return e
}

// New builds a one-shot engine whose topology is the usable part of the
// given view: nodes are member vertices and links are usable edges
// (self-loops excluded — a node needs no channel to itself). Protocols
// that run several engine stages over the same view should build the
// Topology once and call NewEngine per stage instead.
func New(view *graph.Sub, cfg Config) *Engine {
	return NewEngine(NewTopology(view), cfg)
}

// NewClique builds a one-shot CONGESTED-CLIQUE engine over n nodes with
// global vertex ids 0..n-1: every pair of nodes is connected by a link.
func NewClique(n int, cfg Config) *Engine {
	return NewEngine(NewCliqueTopology(n), cfg)
}

// Topology returns the topology the engine runs over.
func (e *Engine) Topology() *Topology { return e.topo }

// Run executes prog on every node, each in its own goroutine, and blocks
// until all nodes return. It returns the first failure (bandwidth
// violation, round-limit breach, or a panic inside prog) if any; the
// simulation state is then unspecified.
func (e *Engine) Run(prog func(*Node)) error {
	e.bar.init(len(e.nodes), e.deliver)
	var wg sync.WaitGroup
	wg.Add(len(e.nodes))
	for i := range e.nodes {
		nd := &e.nodes[i]
		go func() {
			defer wg.Done()
			defer e.bar.leave(nd.idx)
			defer func() {
				if r := recover(); r != nil {
					e.setFail(fmt.Errorf("congest: node %d panicked: %v", nd.v, r))
				}
			}()
			prog(nd)
		}()
	}
	wg.Wait()
	return e.failure()
}

// Step is a node's program for one round under RunSteps: it receives the
// messages delivered at the end of the previous round, stages this
// round's sends, and reports whether the node is done. in is valid until
// the step returns. A step must not call Next: returning ends its round.
type Step func(in []Incoming) (done bool)

// RunSteps executes a step program on every node, on the caller's
// goroutine, and returns when every node is done. start runs a node's
// code up to the end of its first round and returns its Step, or nil if
// the node is already done. Then, once per round, the engine delivers,
// and calls every live node's step once, in node-index order.
//
// Delivery, arenas, Stats, MaxRounds and failures are Run's: a round is
// delivered and counted only while some node is still live after its
// step, so traffic staged in a round where every node finishes is dropped
// uncounted; messages to finished nodes are counted; and the first
// failure (bandwidth violation, round-limit breach, a panic inside start
// or a step, or a call to Next) stops the run with Stats fixed.
func (e *Engine) RunSteps(start func(*Node) Step) (err error) {
	e.stepping = true
	steps := make([]Step, len(e.nodes))
	live := make([]int32, 0, len(e.nodes))
	cur := -1 // node whose code is running, for panic attribution
	defer func() {
		if r := recover(); r != nil {
			if cur < 0 {
				panic(r)
			}
			e.setFail(fmt.Errorf("congest: node %d panicked: %v", e.nodes[cur].v, r))
		}
		err = e.failure()
	}()
	for i := range e.nodes {
		cur = i
		if steps[i] = start(&e.nodes[i]); steps[i] != nil {
			live = append(live, int32(i))
		}
	}
	for len(live) > 0 {
		cur = -1
		e.deliver()
		if e.failed.Load() {
			return
		}
		k := 0
		for _, i := range live {
			cur = int(i)
			nd := &e.nodes[i]
			nd.round++
			if !steps[i](nd.in) {
				live[k] = i
				k++
			}
		}
		live = live[:k]
	}
	return
}

// Stats returns the accumulated cost of the run.
func (e *Engine) Stats() Stats { return e.stats }

// NumNodes returns the number of participating nodes.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// failure returns the run's first failure, nil if none.
func (e *Engine) failure() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.fail
}

func (e *Engine) setFail(err error) {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	if e.fail == nil {
		e.fail = err
	}
	e.failed.Store(true)
}

// deliver is called once per round, after every live node has finished
// it: by the barrier with all live nodes parked under Run, between two
// sweeps of the steps under RunSteps. It moves staged messages into
// receivers' inboxes in the deterministic order: sender node index, then
// staging order.
func (e *Engine) deliver() {
	if e.failed.Load() {
		// The run is already doomed: drop staged traffic and stop
		// accumulating stats so a failed run's cost stays fixed while
		// nodes unwind.
		e.clearStaged()
		return
	}
	e.stats.Rounds++
	e.stats.CongestRounds += e.cfg.Channels
	if e.stats.Rounds > e.cfg.MaxRounds {
		e.setFail(fmt.Errorf("congest: exceeded MaxRounds=%d", e.cfg.MaxRounds))
		// Nodes observe the failure at their next Send/Next and panic
		// out; drop this round's staged messages (uncounted) so nothing
		// accumulates past the failure point.
		e.clearStaged()
		return
	}
	for i := range e.nodes {
		e.nodes[i].in = e.nodes[i].in[:0]
	}
	for i := range e.nodes {
		sender := &e.nodes[i]
		for _, m := range sender.out {
			recv := &e.nodes[m.peerNode]
			recv.in = append(recv.in, Incoming{Port: int(m.peerPort), Ch: int(m.ch), Words: sender.staged(m)})
			e.stats.Words += int64(m.n)
		}
		e.stats.Messages += int64(len(sender.out))
		sender.out = sender.out[:0]
	}
}

// clearStaged drops all staged messages and pending inboxes after a
// failure, so a doomed run stops accumulating state.
func (e *Engine) clearStaged() {
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.out = nd.out[:0]
		nd.in = nd.in[:0]
	}
}
