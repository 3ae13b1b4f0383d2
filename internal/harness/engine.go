package harness

import (
	"fmt"
	"time"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// E11EngineThroughput measures the simulation substrate itself: wall-clock
// round and word throughput of the congest engine on round-heavy torus
// workloads (every node sends on every port, every round), plus the cost
// split between the reusable Topology build and the per-run Engine setup.
// The same workload runs under both drivers: Run (a goroutine per node,
// a round barrier) and RunSteps (every node's step on one goroutine); the
// two must report identical Stats. This is the experiment behind the ROADMAP's "as fast as the hardware
// allows" item: protocol experiments E1-E10 are all bounded by these
// numbers.
func E11EngineThroughput(scale Scale, seed uint64) (*Table, error) {
	type cfg struct{ k, rounds int }
	cases := []cfg{{50, 120}, {100, 120}}
	if scale == Small {
		cases = []cfg{{20, 40}, {40, 40}}
	}
	t := &Table{
		Title: "E11 (engine): congest round throughput, torus k x k, SendToAll per round",
		Headers: []string{"n", "m", "rounds", "rounds/sec", "Mwords/sec",
			"stepRounds/sec", "stepMwords/sec", "topoBuild(ms)", "engineSetup(ms)"},
	}
	for _, c := range cases {
		g := gen.Torus(c.k)
		view := graph.WholeGraph(g)

		t0 := time.Now()
		topo := congest.NewTopology(view)
		topoBuild := time.Since(t0)

		t0 = time.Now()
		eng := congest.NewEngine(topo, congest.Config{Seed: seed})
		setup := time.Since(t0)

		rounds := c.rounds
		t0 = time.Now()
		err := eng.Run(func(nd *congest.Node) {
			for r := 0; r < rounds; r++ {
				nd.SendToAll(int64(r), int64(nd.V()))
				nd.Next()
			}
		})
		elapsed := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("E11 k=%d: %w", c.k, err)
		}
		st := eng.Stats()

		steps := congest.NewEngine(topo, congest.Config{Seed: seed})
		t0 = time.Now()
		err = steps.RunSteps(func(nd *congest.Node) congest.Step {
			r := 0
			nd.SendToAll(int64(r), int64(nd.V()))
			return func([]congest.Incoming) bool {
				if r++; r == rounds {
					return true
				}
				nd.SendToAll(int64(r), int64(nd.V()))
				return false
			}
		})
		stepElapsed := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("E11 k=%d steps: %w", c.k, err)
		}
		if steps.Stats() != st {
			return nil, fmt.Errorf("E11 k=%d: RunSteps Stats %+v differ from Run's %+v", c.k, steps.Stats(), st)
		}
		secs, stepSecs := elapsed.Seconds(), stepElapsed.Seconds()
		t.AddRow(g.N(), g.M(), st.Rounds, float64(st.Rounds)/secs, float64(st.Words)/secs/1e6,
			float64(st.Rounds)/stepSecs, float64(st.Words)/stepSecs/1e6,
			topoBuild.Seconds()*1e3, setup.Seconds()*1e3)
	}
	t.AddNote("Topology is built once and reusable; Engine is the cheap per-run object")
	t.AddNote("delivery order is deterministic (sender index, then staging order): same seed => same Stats and traces for any worker count and either driver")
	t.AddNote("step* columns: the same workload as engine steps on one goroutine (RunSteps), the driver of the router and the naive and clique-DLP baselines")
	return t, nil
}
