package congest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// driver runs a step program on an engine: RunSteps itself, or Run
// driving the same steps from one goroutine per node through Next.
type driver struct {
	name string
	run  func(e *Engine, start func(*Node) Step) error
}

var drivers = []driver{
	{"Run", func(e *Engine, start func(*Node) Step) error {
		return e.Run(func(nd *Node) {
			for step := start(nd); step != nil && !step(nd.Next()); {
			}
		})
	}},
	{"RunSteps", (*Engine).RunSteps},
}

// received is one inbox entry as a node saw it.
type received struct {
	round, port, ch int
	words           string
}

// outcome is everything a run shows: its Stats, every node's inboxes
// (indexed by dense node index) and its error text ("" for success).
type outcome struct {
	stats Stats
	trace [][]received
	err   string
}

// onBothDrivers runs start under each driver, each time on a fresh engine
// from newEngine, records every inbox a step is passed, and fails the
// test unless both drivers give identical Stats, inboxes and error text.
// It returns the common outcome.
func onBothDrivers(t *testing.T, newEngine func() *Engine, start func(*Node) Step) outcome {
	t.Helper()
	var outs []outcome
	for _, d := range drivers {
		e := newEngine()
		trace := make([][]received, e.NumNodes())
		err := d.run(e, func(nd *Node) Step {
			step := start(nd)
			if step == nil {
				return nil
			}
			return func(in []Incoming) bool {
				for _, m := range in {
					trace[nd.idx] = append(trace[nd.idx], received{nd.Round(), m.Port, m.Ch, fmt.Sprint(m.Words)})
				}
				return step(in)
			}
		})
		o := outcome{stats: e.Stats(), trace: trace}
		if err != nil {
			o.err = err.Error()
		}
		outs = append(outs, o)
	}
	want := outs[0]
	for i, o := range outs[1:] {
		name := drivers[i+1].name
		if o.stats != want.stats {
			t.Errorf("%s Stats %+v, %s %+v", drivers[0].name, want.stats, name, o.stats)
		}
		if o.err != want.err {
			t.Errorf("%s error %q, %s %q", drivers[0].name, want.err, name, o.err)
		}
		for v := range want.trace {
			if !slices.Equal(o.trace[v], want.trace[v]) {
				t.Errorf("node %d inboxes differ: %s %v, %s %v", v, drivers[0].name, want.trace[v], name, o.trace[v])
				break
			}
		}
	}
	return want
}

// loop is the step form of the straight-line program
//
//	var in []Incoming
//	for i := 0; i < rounds(nd); i++ { body(nd, i, in); in = nd.Next() }
//
// body sees the inbox delivered after round i-1 (nil in round 0); the
// last round's inbox reaches only the recorded trace.
func loop(rounds func(nd *Node) int, body func(nd *Node, i int, in []Incoming)) func(*Node) Step {
	return func(nd *Node) Step {
		n := rounds(nd)
		if n <= 0 {
			return nil
		}
		body(nd, 0, nil)
		i := 0
		return func(in []Incoming) bool {
			if i++; i == n {
				return true
			}
			body(nd, i, in)
			return false
		}
	}
}

func fixed(n int) func(*Node) int { return func(*Node) int { return n } }

var forever = fixed(math.MaxInt)

// TestNextFromStepFails: a start or a step that calls Next fails the run
// with an error naming its node, under RunSteps, instead of hanging.
func TestNextFromStepFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inStart bool
		node    int // the node whose code calls Next first
		rounds  int // rounds delivered before the failure
	}{
		{"step", false, 0, 1},
		{"start", true, 1, 0},
	} {
		e := New(pathSub(3), Config{})
		err := e.RunSteps(func(nd *Node) Step {
			if tc.inStart && nd.V() == 1 {
				nd.Next()
			}
			return func([]Incoming) bool {
				nd.Next()
				return false
			}
		})
		want := fmt.Sprintf("congest: node %d panicked: congest: Next called under RunSteps", tc.node)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s: err = %v, want prefix %q", tc.name, err, want)
		}
		if e.Stats().Rounds != tc.rounds {
			t.Fatalf("%s: Rounds = %d, want %d", tc.name, e.Stats().Rounds, tc.rounds)
		}
	}
}
