package bench

import (
	"context"
	"fmt"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
	"dexpander/internal/triangle"
)

// gnpScenario builds one G(n, p) scenario cell.
func gnpScenario(n int, p float64) Scenario {
	return Scenario{
		Family: "gnp",
		Params: fmt.Sprintf("n=%d p=%.2f", n, p),
		Build:  func(seed uint64) *graph.Graph { return gen.GNP(n, p, seed) },
	}
}

func chungLuScenario(n int, gamma, avgDeg float64) Scenario {
	return Scenario{
		Family: "chung-lu",
		Params: fmt.Sprintf("n=%d gamma=%.1f avg=%.0f", n, gamma, avgDeg),
		Build:  func(seed uint64) *graph.Graph { return gen.ChungLu(n, gamma, avgDeg, seed) },
	}
}

func torusScenario(k int) Scenario {
	return Scenario{
		Family: "torus",
		Params: fmt.Sprintf("k=%d", k),
		Build:  func(seed uint64) *graph.Graph { return gen.Torus(k) },
	}
}

func gridScenario(rows, cols int) Scenario {
	return Scenario{
		Family: "grid",
		Params: fmt.Sprintf("rows=%d cols=%d", rows, cols),
		Build:  func(seed uint64) *graph.Graph { return gen.Grid(rows, cols) },
	}
}

func expanderOfCliquesScenario(k, s, d int) Scenario {
	return Scenario{
		Family: "expander-of-cliques",
		Params: fmt.Sprintf("k=%d s=%d d=%d", k, s, d),
		Build:  func(seed uint64) *graph.Graph { return gen.ExpanderOfCliques(k, s, d, seed) },
	}
}

func bipartiteScenario(nl, nr int, p float64) Scenario {
	return Scenario{
		Family: "bipartite",
		Params: fmt.Sprintf("nl=%d nr=%d p=%.2f", nl, nr, p),
		Build:  func(seed uint64) *graph.Graph { return gen.BipartiteGNP(nl, nr, p, seed) },
	}
}

// ShortScenarios is the CI matrix: one modest instance per family, sized
// so the whole matrix (including the decomposition pipeline) finishes in
// well under a minute.
func ShortScenarios() []Scenario {
	return []Scenario{
		gnpScenario(64, 0.25),
		chungLuScenario(96, 2.5, 8),
		torusScenario(8),
		gridScenario(8, 8),
		expanderOfCliquesScenario(6, 8, 3),
		bipartiteScenario(32, 32, 0.15),
	}
}

// FullScenarios is the local deep matrix: the same families at sizes
// where the distributed algorithms' scaling is visible.
func FullScenarios() []Scenario {
	return []Scenario{
		gnpScenario(64, 0.25),
		gnpScenario(96, 0.25),
		chungLuScenario(192, 2.5, 10),
		torusScenario(10),
		gridScenario(10, 10),
		expanderOfCliquesScenario(8, 10, 3),
		bipartiteScenario(48, 48, 0.15),
	}
}

// LargeLocalScenarios are instances only the local (non-simulated)
// kernels run on — the sizes where the parallel kernel's sharding pays.
func LargeLocalScenarios() []Scenario {
	return []Scenario{
		gnpScenario(1024, 0.08),
		gnpScenario(2048, 0.05),
		chungLuScenario(4096, 2.5, 16),
	}
}

func baScenario(n, m0 int) Scenario {
	return Scenario{
		Family: "barabasi-albert",
		Params: fmt.Sprintf("n=%d m0=%d", n, m0),
		Build:  func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(n, m0, seed) },
	}
}

// SkewedScenarios is the heavy-tail slice of the matrix: preferential
// attachment and heavy-tail Chung-Lu (gamma just above 2, the regime
// where hubs dominate) at two sizes each — the inputs an id-ordered
// kernel degrades on and the rank/2D kernels are built for.
func SkewedScenarios() []Scenario {
	return []Scenario{
		baScenario(512, 8),
		baScenario(2048, 8),
		chungLuScenario(512, 2.1, 12),
		chungLuScenario(2048, 2.1, 16),
	}
}

// SkewedAlgorithms are the kernel columns run on SkewedScenarios: the
// rank enumeration kernel (whose checksum digests the full triangle set;
// the baseline pins the checksums the retired merge kernel produced, so
// every CI run re-proves rank bit-identical to it) plus the 2D
// edge-partitioned counting path (whose triangle count must match).
func SkewedAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "enumerate-rank", Run: runRank},
		{Name: "count-2d", Run: runCount2D},
	}
}

func runCount2D(view *graph.Sub, seed uint64) (Result, error) {
	n := triangle.CountParallel2D(view, 0)
	return Result{Triangles: n, Checksum: triangle.HashWords(uint64(n))}, nil
}

// engineProbeRounds is the fixed round count of the engine throughput
// probe: enough rounds to amortize engine setup, few enough to keep every
// scenario cell cheap.
const engineProbeRounds = 60

// Algorithms returns the standard matrix columns.
func Algorithms() []Algorithm {
	return []Algorithm{
		{Name: "brute", Run: runBrute},
		{Name: "brute-par", Run: runRank},
		{Name: "clique-dlp", Run: runCliqueDLP},
		{Name: "naive", Run: runNaive},
		{Name: "pipeline", Run: runPipeline},
		{Name: "engine", Run: runEngine},
	}
}

// LocalAlgorithms returns only the shared-memory kernels, for the large
// scenarios the CONGEST simulation would take too long on.
func LocalAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "brute", Run: runBrute},
		{Name: "brute-par", Run: runRank},
	}
}

func runBrute(view *graph.Sub, seed uint64) (Result, error) {
	set := triangle.BruteForce(view)
	return Result{Triangles: set.Len(), Checksum: set.Checksum()}, nil
}

// runRank runs the rank kernel over the whole view with the default
// worker pool and digests the full triangle set.
func runRank(view *graph.Sub, seed uint64) (Result, error) {
	set := triangle.SetKernel(view, 0, triangle.KernelRank)
	return Result{Triangles: set.Len(), Checksum: set.Checksum()}, nil
}

func runCliqueDLP(view *graph.Sub, seed uint64) (Result, error) {
	set, stats, err := triangle.CliqueDLP(view, seed)
	if err != nil {
		return Result{}, err
	}
	return Result{Triangles: set.Len(), Checksum: set.Checksum(), Stats: stats}, nil
}

func runNaive(view *graph.Sub, seed uint64) (Result, error) {
	set, stats, err := triangle.Naive(view, seed)
	if err != nil {
		return Result{}, err
	}
	return Result{Triangles: set.Len(), Checksum: set.Checksum(), Stats: stats}, nil
}

func runPipeline(view *graph.Sub, seed uint64) (Result, error) {
	set, stats, err := triangle.Enumerate(view, triangle.Options{Seed: seed})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Triangles: set.Len(),
		Checksum:  set.Checksum(),
		Stats: congest.Stats{
			Rounds:        stats.Rounds,
			CongestRounds: stats.CongestRounds,
			Messages:      stats.Messages,
		},
	}, nil
}

// DecompositionScenarios is the expander-decomposition slice of the
// matrix: families with planted sparse cuts (dumbbell), certified
// expanders of dense parts (expander-of-cliques), flat geometry (grid),
// and random graphs (gnp) — the regimes the Theorem 1/Theorem 3 pipeline
// behaves qualitatively differently on.
func DecompositionScenarios() []Scenario {
	return []Scenario{
		{
			Family: "dumbbell",
			Params: "s=24 bridges=2",
			Build:  func(seed uint64) *graph.Graph { return gen.Dumbbell(24, 2, seed) },
		},
		expanderOfCliquesScenario(6, 8, 3),
		gridScenario(12, 12),
		gnpScenario(96, 0.10),
	}
}

// DecompositionAlgorithms are the columns run on DecompositionScenarios:
// the Theorem 1 decomposition and Theorem 2 enumeration pipelines in both
// execution modes (one inline worker vs. the GOMAXPROCS pool), plus the
// Theorem 3 nearly most balanced sparse cut, all driven by the sparse
// local-walk engine. Their checksums digest the full structural output
// (labels, cut membership, the complete triangle set), so the CI baseline
// gate catches any behavioral drift in the stack, not just its timing —
// and because the -seq and -par cells of a pipeline must carry the SAME
// checksum, the baseline also pins the parallel execution's bit-identity
// to serial on every CI run.
func DecompositionAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "decompose-seq", Run: decomposeCell("cs19", 1)},
		{Name: "decompose-par", Run: decomposeCell("cs19", 0)},
		{Name: "decompose-det", Run: decomposeCell("det", 0)},
		{Name: "decompose-cmps", Run: decomposeCell("par-cmps", 0)},
		{Name: "partition-seq", Run: runPartitionSeq},
		{Name: "enumerate-seq", Run: enumerateCell(1)},
		{Name: "enumerate-par", Run: enumerateCell(0)},
	}
}

// decomposeCell runs the named registry backend with the given worker
// count (1 = inline serial, 0 = GOMAXPROCS) and digests its full
// structural output. The cell errors unless the decomposition is a valid
// partition whose measured inter-cluster fraction meets eps, the call's
// bound. The decompose-det cell's checksum is pinned in the baseline (and
// measure() re-runs every cell), so CI proves the det backend byte-stable
// run over run AND release over release.
func decomposeCell(backend string, workers int) func(view *graph.Sub, seed uint64) (Result, error) {
	return func(view *graph.Sub, seed uint64) (Result, error) {
		opt := core.Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: seed, Workers: workers}
		dec, _, err := core.RunBackend(context.Background(), view, opt, backend, opt.Eps)
		if err != nil {
			return Result{}, err
		}
		if err := dec.CheckPartition(view); err != nil {
			return Result{}, fmt.Errorf("invalid partition: %w", err)
		}
		words := make([]uint64, 0, len(dec.Labels)+2)
		words = append(words, uint64(dec.Count), uint64(dec.CutEdges))
		for _, l := range dec.Labels {
			words = append(words, uint64(int64(l)))
		}
		return Result{Checksum: triangle.HashWords(words...)}, nil
	}
}

// enumerateCell runs the Theorem 2 pipeline with the given worker count;
// the cell carries the full triangle-set checksum plus the simulated
// rounds/messages, all of which the baseline gate pins.
func enumerateCell(workers int) func(view *graph.Sub, seed uint64) (Result, error) {
	return func(view *graph.Sub, seed uint64) (Result, error) {
		set, stats, err := triangle.Enumerate(view, triangle.Options{Seed: seed, Workers: workers})
		if err != nil {
			return Result{}, err
		}
		return Result{
			Triangles: set.Len(),
			Checksum:  set.Checksum(),
			Stats: congest.Stats{
				Rounds:        stats.Rounds,
				CongestRounds: stats.CongestRounds,
				Messages:      stats.Messages,
			},
		}, nil
	}
}

func runPartitionSeq(view *graph.Sub, seed uint64) (Result, error) {
	res := nibble.SparseCut(view, 0.1, nibble.Practical, rng.New(seed))
	words := make([]uint64, 0, view.Base().N()+2)
	words = append(words, uint64(res.Iterations), uint64(res.C.Len()))
	for _, v := range res.C.Members() {
		words = append(words, uint64(v))
	}
	return Result{Checksum: triangle.HashWords(words...)}, nil
}

// runEngine is the substrate probe: engineProbeRounds rounds of
// SendToAll on the scenario topology, measuring raw simulator round
// throughput on this graph shape. The checksum digests the deterministic
// Stats so cross-run drift in delivered traffic is caught like any other
// output mismatch.
func runEngine(view *graph.Sub, seed uint64) (Result, error) {
	topo := congest.NewTopology(view)
	eng := congest.NewEngine(topo, congest.Config{Seed: seed})
	err := eng.Run(func(nd *congest.Node) {
		for r := 0; r < engineProbeRounds; r++ {
			nd.SendToAll(int64(r), int64(nd.V()))
			nd.Next()
		}
	})
	if err != nil {
		return Result{}, err
	}
	st := eng.Stats()
	return Result{
		Checksum: triangle.HashWords(uint64(st.Rounds), uint64(st.Messages), uint64(st.Words)),
		Stats:    st,
	}, nil
}
