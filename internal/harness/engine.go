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
// This is the experiment behind the ROADMAP's "as fast as the hardware
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
			"topoBuild(ms)", "engineSetup(ms)"},
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
		secs := elapsed.Seconds()
		t.AddRow(g.N(), g.M(), st.Rounds, float64(st.Rounds)/secs,
			float64(st.Words)/secs/1e6, topoBuild.Seconds()*1e3, setup.Seconds()*1e3)
	}
	t.AddNote("Topology is built once and reusable; Engine is the cheap per-run object")
	t.AddNote("delivery order is deterministic (sender index, then staging order): same seed => same Stats and traces for any worker count")
	return t, nil
}
