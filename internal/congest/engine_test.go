package congest

import (
	"strings"
	"sync/atomic"
	"testing"

	"dexpander/internal/graph"
)

func pathSub(n int) *graph.Sub {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	return graph.WholeGraph(b.Graph())
}

func TestSingleRoundExchange(t *testing.T) {
	e := New(pathSub(3), Config{})
	got := make([][]int64, 3)
	err := e.Run(func(nd *Node) {
		nd.SendToAll(int64(nd.V()) + 100)
		var vals []int64
		for _, m := range nd.Next() {
			vals = append(vals, m.Words[0])
		}
		got[nd.V()] = vals
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 1 || got[0][0] != 101 {
		t.Errorf("node 0 received %v, want [101]", got[0])
	}
	if len(got[1]) != 2 {
		t.Errorf("node 1 received %v, want two messages", got[1])
	}
	if e.Stats().Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", e.Stats().Rounds)
	}
	if e.Stats().Messages != 4 {
		t.Errorf("Messages = %d, want 4", e.Stats().Messages)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := New(pathSub(8), Config{Seed: 99})
		out := make([]int64, 8)
		if err := e.Run(func(nd *Node) {
			x := nd.Rand().Int63() % 1000
			nd.SendToAll(x)
			var sum int64
			for _, m := range nd.Next() {
				sum += m.Words[0]
			}
			out[nd.V()] = sum
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBandwidthViolationWordCount(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{MaxWords: 2}) },
		loop(fixed(1), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() == 0 {
				nd.Send(0, 1, 2, 3)
			}
		}))
	if !strings.Contains(o.err, "bandwidth") {
		t.Fatalf("expected bandwidth violation, got %q", o.err)
	}
}

func TestBandwidthViolationDoubleSend(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{}) },
		loop(fixed(1), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() == 0 {
				nd.Send(0, 1)
				nd.Send(0, 2)
			}
		}))
	if !strings.Contains(o.err, "double send") {
		t.Fatalf("expected double-send violation, got %q", o.err)
	}
}

func TestChannelsAllowParallelSends(t *testing.T) {
	e := New(pathSub(2), Config{Channels: 3})
	var received int32
	err := e.Run(func(nd *Node) {
		if nd.V() == 0 {
			for ch := 0; ch < 3; ch++ {
				nd.SendOn(ch, 0, int64(ch))
			}
		}
		msgs := nd.Next()
		if nd.V() == 1 {
			atomic.StoreInt32(&received, int32(len(msgs)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received != 3 {
		t.Errorf("received %d channel messages, want 3", received)
	}
	if e.Stats().CongestRounds != 3 {
		t.Errorf("CongestRounds = %d, want 3 (1 round x 3 channels)", e.Stats().CongestRounds)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	e := New(pathSub(2), Config{MaxRounds: 5})
	err := e.Run(func(nd *Node) {
		for {
			nd.Next()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
		t.Fatalf("expected MaxRounds error, got %v", err)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(3), Config{}) },
		loop(fixed(2), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() == 1 {
				panic("boom")
			}
		}))
	if want := "congest: node 1 panicked: boom"; o.err != want {
		t.Fatalf("err = %q, want %q", o.err, want)
	}
	if o.stats != (Stats{}) {
		t.Fatalf("Stats = %+v: the failing round must not be counted", o.stats)
	}
}

func TestUnevenHaltTimes(t *testing.T) {
	// Nodes halting at different rounds must not deadlock the others.
	e := New(pathSub(5), Config{})
	err := e.Run(func(nd *Node) {
		for i := 0; i <= nd.V(); i++ {
			nd.Next()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", e.Stats().Rounds)
	}
}

func TestEdgeMaskRestrictsTopology(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Graph()
	mask := []bool{true, false}
	e := New(graph.NewSub(g, nil, mask), Config{})
	degs := make([]int, 3)
	if err := e.Run(func(nd *Node) { degs[nd.V()] = nd.Degree() }); err != nil {
		t.Fatal(err)
	}
	if degs[0] != 1 || degs[1] != 1 || degs[2] != 0 {
		t.Errorf("degrees = %v, want [1 1 0]", degs)
	}
}

func TestMemberRestriction(t *testing.T) {
	g := pathSub(4).Base()
	members := graph.VSetOf(4, 1, 2)
	e := New(graph.NewSub(g, members, nil), Config{})
	if e.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", e.NumNodes())
	}
	var ran int32
	if err := e.Run(func(nd *Node) {
		atomic.AddInt32(&ran, 1)
		if nd.V() != 1 && nd.V() != 2 {
			t.Errorf("unexpected member %d", nd.V())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("ran = %d node programs, want 2", ran)
	}
}

func TestSelfLoopsGetNoPort(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	e := New(graph.WholeGraph(b.Graph()), Config{})
	degs := make([]int, 2)
	if err := e.Run(func(nd *Node) { degs[nd.V()] = nd.Degree() }); err != nil {
		t.Fatal(err)
	}
	if degs[0] != 1 {
		t.Errorf("Degree(0) = %d, want 1 (loop has no port)", degs[0])
	}
}

func TestPortOfAndNeighborID(t *testing.T) {
	e := New(pathSub(3), Config{})
	if err := e.Run(func(nd *Node) {
		for p := 0; p < nd.Degree(); p++ {
			nb := nd.NeighborID(p)
			if nd.PortOf(nb) != p {
				t.Errorf("node %d: PortOf(NeighborID(%d)) != %d", nd.V(), p, p)
			}
		}
		if nd.PortOf(99) != -1 {
			t.Errorf("PortOf(non-neighbor) != -1")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueTopology(t *testing.T) {
	const n = 6
	e := NewClique(n, Config{})
	err := e.Run(func(nd *Node) {
		if nd.Degree() != n-1 {
			t.Errorf("clique degree = %d, want %d", nd.Degree(), n-1)
		}
		// Send each peer its own id; check it arrives correctly.
		for p := 0; p < nd.Degree(); p++ {
			nd.Send(p, int64(nd.NeighborID(p)))
		}
		for _, m := range nd.Next() {
			if m.Words[0] != int64(nd.V()) {
				t.Errorf("node %d got misrouted message %d via port %d", nd.V(), m.Words[0], m.Port)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Messages != n*(n-1) {
		t.Errorf("Messages = %d, want %d", e.Stats().Messages, n*(n-1))
	}
}

func TestMultiRoundPingPong(t *testing.T) {
	e := New(pathSub(2), Config{})
	var final int64
	err := e.Run(func(nd *Node) {
		val := int64(0)
		if nd.V() == 0 {
			nd.Send(0, 1)
		}
		for r := 0; r < 10; r++ {
			for _, m := range nd.Next() {
				val = m.Words[0]
				if r < 9 {
					nd.Send(0, val+1)
				}
			}
		}
		if nd.V() == 0 {
			atomic.StoreInt64(&final, val)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Value increments once per hop: rounds 1..10 deliver 1,2,...,10;
	// node 0 receives on even rounds, last at round 10 carrying 10.
	if final != 10 {
		t.Errorf("final = %d, want 10", final)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rounds: 1, CongestRounds: 2, Messages: 3, Words: 4}
	a.Add(Stats{Rounds: 10, CongestRounds: 20, Messages: 30, Words: 40})
	if a.Rounds != 11 || a.CongestRounds != 22 || a.Messages != 33 || a.Words != 44 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func TestZeroNodeRun(t *testing.T) {
	g := graph.NewBuilder(3).Graph()
	o := onBothDrivers(t, func() *Engine { return New(graph.NewSub(g, graph.NewVSet(3), nil), Config{}) },
		func(*Node) Step {
			t.Error("program ran with no members")
			return nil
		})
	if o.err != "" || o.stats != (Stats{}) {
		t.Fatalf("err %q, Stats %+v", o.err, o.stats)
	}
}
