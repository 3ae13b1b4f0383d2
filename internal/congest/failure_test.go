package congest

import (
	"strings"
	"testing"

	"dexpander/internal/graph"
)

// Failure-injection tests: the engine must fail loudly and promptly, not
// hang or silently corrupt, when programs misbehave.

func TestExactWordLimitAccepted(t *testing.T) {
	e := New(pathSub(2), Config{MaxWords: 3})
	err := e.Run(func(nd *Node) {
		if nd.V() == 0 {
			nd.Send(0, 1, 2, 3) // exactly the limit
		}
		msgs := nd.Next()
		if nd.V() == 1 && len(msgs) != 1 {
			t.Errorf("boundary message lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadChannelRejected(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{Channels: 2}) },
		loop(fixed(1), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() == 0 {
				nd.SendOn(2, 0, 1)
			}
		}))
	if !strings.Contains(o.err, "channel") {
		t.Fatalf("bad channel accepted: %q", o.err)
	}
}

func TestBadPortRejected(t *testing.T) {
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{}) },
		loop(fixed(1), func(nd *Node, _ int, _ []Incoming) {
			if nd.V() == 0 {
				nd.Send(7, 1)
			}
		}))
	if !strings.Contains(o.err, "port") {
		t.Fatalf("bad port accepted: %q", o.err)
	}
}

func TestPanicDuringBarrierDoesNotDeadlock(t *testing.T) {
	// One node panics in round 2 while the others have finished it: the
	// run must still terminate with the panic as its error, and only
	// round 1 counted.
	o := onBothDrivers(t, func() *Engine { return New(pathSub(4), Config{}) },
		loop(fixed(3), func(nd *Node, i int, _ []Incoming) {
			if nd.V() == 2 && i == 1 {
				panic("mid-protocol crash")
			}
		}))
	if !strings.Contains(o.err, "mid-protocol crash") {
		t.Fatalf("err = %q", o.err)
	}
	if o.stats.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", o.stats.Rounds)
	}
}

func TestHalfHaltHalfContinue(t *testing.T) {
	// Half the nodes stop after one round; the rest keep exchanging.
	// Messages to departed nodes are dropped harmlessly.
	const n = 8
	o := onBothDrivers(t, func() *Engine { return New(pathSub(n), Config{}) },
		loop(func(nd *Node) int { return 1 + 5*(1-nd.V()%2) }, func(nd *Node, i int, _ []Incoming) {
			nd.SendToAll(int64(i))
		}))
	if o.err != "" {
		t.Fatal(o.err)
	}
	if o.stats.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", o.stats.Rounds)
	}
}

func TestMessagesToDepartedNodes(t *testing.T) {
	// Node 1 leaves immediately; node 0 keeps sending to it. No crash;
	// every message is counted.
	o := onBothDrivers(t, func() *Engine { return New(pathSub(2), Config{}) },
		loop(func(nd *Node) int { return 5 * (1 - nd.V()) }, func(nd *Node, i int, _ []Incoming) {
			nd.Send(0, int64(i))
		}))
	if o.err != "" {
		t.Fatal(o.err)
	}
	if o.stats.Messages != 5 {
		t.Fatalf("messages = %d", o.stats.Messages)
	}
}

func TestZeroWordMessageAllowed(t *testing.T) {
	// An empty payload is a legal "ping".
	e := New(pathSub(2), Config{})
	got := -1
	err := e.Run(func(nd *Node) {
		if nd.V() == 0 {
			nd.Send(0)
		}
		msgs := nd.Next()
		if nd.V() == 1 {
			got = len(msgs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("ping lost: %d", got)
	}
}

func TestEngineReuseAfterFailure(t *testing.T) {
	// A failed engine is single-use; a fresh engine on the same view
	// must work.
	view := pathSub(3)
	bad := New(view, Config{MaxWords: 1})
	_ = bad.Run(func(nd *Node) {
		nd.Send(0, 1, 2)
		nd.Next()
	})
	good := New(view, Config{})
	if err := good.Run(func(nd *Node) { nd.Next() }); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueChannelsAndStats(t *testing.T) {
	e := NewClique(4, Config{Channels: 2})
	err := e.Run(func(nd *Node) {
		for p := 0; p < nd.Degree(); p++ {
			nd.SendOn(0, p, 1)
			nd.SendOn(1, p, 2)
		}
		if got := len(nd.Next()); got != 6 {
			t.Errorf("node %d received %d, want 6", nd.V(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().CongestRounds != 2 {
		t.Fatalf("CongestRounds = %d", e.Stats().CongestRounds)
	}
}

var _ = graph.Unreachable // keep the import for future cases
