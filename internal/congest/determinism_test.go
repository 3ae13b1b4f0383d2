package congest

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dexpander/internal/graph"
)

// traceRun executes a randomized multi-round workload on the topology
// under both drivers (which must agree) and returns the run's Stats plus
// every node's inboxes (for every delivered message: round, port,
// channel, payload, in inbox order).
func traceRun(t *testing.T, topo *Topology, seed uint64, rounds int) (Stats, [][]received) {
	t.Helper()
	o := onBothDrivers(t,
		func() *Engine { return NewEngine(topo, Config{Seed: seed, Channels: 2, MaxWords: 3}) },
		loop(fixed(rounds), func(nd *Node, _ int, _ []Incoming) {
			r := nd.Rand()
			for p := 0; p < nd.Degree(); p++ {
				if r.Bool() {
					nd.Send(p, r.Int63()%1000, int64(nd.V()))
				}
				if r.Bool() {
					nd.SendOn(1, p, r.Int63()%7)
				}
			}
		}))
	if o.err != "" {
		t.Fatal(o.err)
	}
	return o.stats, o.trace
}

func sameTraces[T comparable](a, b [][]T) (int, bool) {
	for v := range a {
		if !slices.Equal(a[v], b[v]) {
			return v, false
		}
	}
	return -1, true
}

// TestDeterministicStatsAndTraces: repeated seeded runs must yield
// identical Stats and identical per-node message traces, on the same
// topology and on freshly built ones.
func TestDeterministicStatsAndTraces(t *testing.T) {
	view := torusView(6)
	topo := NewTopology(view)
	st1, tr1 := traceRun(t, topo, 42, 12)
	st2, tr2 := traceRun(t, topo, 42, 12) // topology reuse
	st3, tr3 := traceRun(t, NewTopology(view), 42, 12)
	if st1 != st2 || st1 != st3 {
		t.Fatalf("stats differ across runs: %+v vs %+v vs %+v", st1, st2, st3)
	}
	if v, ok := sameTraces(tr1, tr2); !ok {
		t.Fatalf("trace differs at node %d on reused topology", v)
	}
	if v, ok := sameTraces(tr1, tr3); !ok {
		t.Fatalf("trace differs at node %d on rebuilt topology", v)
	}
	if st1.Messages == 0 {
		t.Fatal("workload sent no messages")
	}
}

// TestDeterministicAcrossWorkerCounts: the same seeded run must be
// bit-identical whatever GOMAXPROCS is, so no processor-count-dependent
// choice can leak into results.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	view := torusView(7)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	st1, tr1 := traceRun(t, NewTopology(view), 7, 12)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		st, tr := traceRun(t, NewTopology(view), 7, 12)
		if st != st1 {
			t.Fatalf("GOMAXPROCS=%d: stats %+v != %+v", procs, st, st1)
		}
		if v, ok := sameTraces(tr1, tr); !ok {
			t.Fatalf("GOMAXPROCS=%d: trace differs at node %d", procs, v)
		}
	}
}

// TestDeterministicParallelDelivery drives heavy all-to-all traffic
// (n*(n-1) = 5256 messages per round on a 73-clique) through delivery and
// checks that every message arrives, and that inbox order and stats are
// identical whatever GOMAXPROCS is.
func TestDeterministicParallelDelivery(t *testing.T) {
	const n, rounds = 73, 4
	run := func() (Stats, [][]string) {
		e := NewClique(n, Config{Seed: 3})
		traces := make([][]string, n)
		err := e.Run(func(nd *Node) {
			for i := 0; i < rounds; i++ {
				nd.SendToAll(int64(nd.V()), int64(i))
				for _, m := range nd.Next() {
					traces[nd.V()] = append(traces[nd.V()],
						fmt.Sprintf("r%d p%d %v", i, m.Port, m.Words))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats(), traces
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(1)
	st1, tr1 := run()
	if st1.Messages != int64(n*(n-1)*rounds) {
		t.Fatalf("Messages = %d, want %d", st1.Messages, n*(n-1)*rounds)
	}
	runtime.GOMAXPROCS(4)
	st2, tr2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	if v, ok := sameTraces(tr1, tr2); !ok {
		t.Fatalf("trace differs at node %d between GOMAXPROCS settings", v)
	}
}

// TestInboxSenderOrder checks the documented delivery order: a node's
// inbox is sorted by sender node index first, staging order second.
func TestInboxSenderOrder(t *testing.T) {
	// Star: node 0 is the hub; spokes 1..6 each send twice (2 channels).
	b := graph.NewBuilder(7)
	for v := 6; v >= 1; v-- { // edge insertion order reverses port order
		b.AddEdge(0, v)
	}
	view := graph.WholeGraph(b.Graph())
	o := onBothDrivers(t, func() *Engine { return New(view, Config{Channels: 2}) },
		loop(fixed(1), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() != 0 {
				nd.SendOn(0, 0, int64(nd.V()))
				nd.SendOn(1, 0, int64(nd.V())*10)
			}
		}))
	if o.err != "" {
		t.Fatal(o.err)
	}
	var got []string
	for _, m := range o.trace[0] {
		got = append(got, m.words)
	}
	// Senders are nodes 1..6 in dense index order; each staged its ch-0
	// word before its ch-1 word.
	want := []string{"[1]", "[10]", "[2]", "[20]", "[3]", "[30]", "[4]", "[40]", "[5]", "[50]", "[6]", "[60]"}
	if !slices.Equal(got, want) {
		t.Fatalf("hub inbox order %v, want %v", got, want)
	}
}

// TestCliquePortNumberingInvariant pins down NewClique's arithmetic port
// layout: port p of node i leads to vertex p (or p+1 once p >= i), the
// reverse pairing is symmetric, and PortOf inverts NeighborID.
func TestCliquePortNumberingInvariant(t *testing.T) {
	const n = 9
	topo := NewCliqueTopology(n)
	if topo.NumNodes() != n {
		t.Fatalf("NumNodes=%d", topo.NumNodes())
	}
	e := NewEngine(topo, Config{})
	err := e.Run(func(nd *Node) {
		i := nd.V()
		if nd.Degree() != n-1 {
			t.Errorf("node %d: degree %d", i, nd.Degree())
		}
		for p := 0; p < nd.Degree(); p++ {
			wantJ := p
			if p >= i {
				wantJ = p + 1
			}
			if j := nd.NeighborID(p); j != wantJ {
				t.Errorf("node %d port %d: neighbor %d, want %d", i, p, j, wantJ)
			}
			if nd.EdgeID(p) != -1 {
				t.Errorf("node %d port %d: edge id %d, want -1", i, p, nd.EdgeID(p))
			}
			if q := nd.PortOf(nd.NeighborID(p)); q != p {
				t.Errorf("node %d: PortOf(NeighborID(%d)) = %d", i, p, q)
			}
		}
		if nd.PortOf(i) != -1 || nd.PortOf(-1) != -1 || nd.PortOf(n) != -1 {
			t.Errorf("node %d: PortOf accepts non-neighbors", i)
		}
		// Pairing symmetry via the engine: send each neighbor our id on
		// the port leading to it; everyone must receive exactly n-1
		// messages, message k arriving on the port leading back to its
		// sender.
		for p := 0; p < nd.Degree(); p++ {
			nd.Send(p, int64(i))
		}
		msgs := nd.Next()
		if len(msgs) != n-1 {
			t.Errorf("node %d received %d messages", i, len(msgs))
		}
		for _, m := range msgs {
			if nd.NeighborID(m.Port) != int(m.Words[0]) {
				t.Errorf("node %d: message from %d arrived on port toward %d",
					i, m.Words[0], nd.NeighborID(m.Port))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMaxRoundsDropsStagedTraffic: after the round limit trips, staged
// messages are dropped and stats stop accumulating (the failing round is
// counted, its traffic is not).
func TestMaxRoundsDropsStagedTraffic(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{MaxRounds: 3}) },
		loop(forever, func(nd *Node, _ int, _ []Incoming) { nd.SendToAll(int64(nd.Round())) }))
	if !strings.Contains(o.err, "MaxRounds") {
		t.Fatalf("expected MaxRounds failure, got %q", o.err)
	}
	if o.stats.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4 (3 allowed + the failing one)", o.stats.Rounds)
	}
	if o.stats.Messages != 6 || o.stats.Words != 6 {
		t.Errorf("Messages/Words = %d/%d, want 6/6: the aborted round's staged traffic must be dropped",
			o.stats.Messages, o.stats.Words)
	}
}

// TestArenaRecycling: a payload received in round r must stay intact
// while the receiver holds it (until its round r+1 ends), even as the
// sender keeps staging new rounds into its arenas and the receiver
// stages its own sends.
func TestArenaRecycling(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{MaxWords: 1}) },
		loop(fixed(50), func(nd *Node, r int, in []Incoming) {
			nd.Send(0, int64(100+r))
			for _, m := range in {
				if m.Words[0] != int64(100+r-1) {
					t.Errorf("round %d: held payload mutated to %d", r, m.Words[0])
				}
			}
		}))
	if o.err != "" {
		t.Fatal(o.err)
	}
}
