package congest

import (
	"fmt"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// torusView builds a k x k torus grid (every node degree 4).
func torusView(k int) *graph.Sub {
	return graph.WholeGraph(gen.Torus(k))
}

// benchRounds drives a round-heavy all-ports workload on the view under
// the given driver and reports rounds/sec and words/sec.
func benchRounds(b *testing.B, view *graph.Sub, d driver) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	e := New(view, Config{})
	err := d.run(e, loop(fixed(b.N), func(nd *Node, r int, _ []Incoming) { nd.SendToAll(int64(r)) }))
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(e.Stats().Rounds)/secs, "rounds/sec")
		b.ReportMetric(float64(e.Stats().Words)/secs, "words/sec")
	}
}

// BenchmarkRoundThroughput measures the engine's cost per simulated
// round under Run: 400 nodes on a grid exchanging one message per edge
// per round.
func BenchmarkRoundThroughput(b *testing.B) { benchRounds(b, torusView(20), drivers[0]) }

// BenchmarkRoundThroughput10k is the headline engine microbenchmark: a
// 10,000-node torus exchanging one message per edge direction per round
// (40k messages/round), under Run.
func BenchmarkRoundThroughput10k(b *testing.B) { benchRounds(b, torusView(100), drivers[0]) }

// BenchmarkRoundThroughputSteps is BenchmarkRoundThroughput's and
// BenchmarkRoundThroughput10k's workload under RunSteps.
func BenchmarkRoundThroughputSteps(b *testing.B) {
	for _, k := range []int{20, 100} {
		b.Run(fmt.Sprintf("n=%d", k*k), func(b *testing.B) { benchRounds(b, torusView(k), drivers[1]) })
	}
}

func BenchmarkBFSTreeProtocol(b *testing.B) {
	gb := graph.NewBuilder(256)
	for v := 1; v < 256; v++ {
		gb.AddEdge(v/2, v) // binary tree
	}
	view := graph.WholeGraph(gb.Graph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(view, Config{})
		if err := e.Run(func(nd *Node) {
			BFSTree(nd, true, nd.V() == 0, 10, nil)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinedConvergecast(b *testing.B) {
	gb := graph.NewBuilder(256)
	for v := 1; v < 256; v++ {
		gb.AddEdge(v/2, v)
	}
	view := graph.WholeGraph(gb.Graph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(view, Config{})
		if err := e.Run(func(nd *Node) {
			tree := BFSTree(nd, true, nd.V() == 0, 10, nil)
			vectors := make([][]int64, 16)
			for j := range vectors {
				vectors[j] = []int64{int64(nd.V()), 1}
			}
			PipelinedConvergecastSum(nd, tree, 10, vectors)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
