// Package bench is the scenario-matrix benchmark subsystem: it runs a
// matrix of graph families x algorithms x sizes, measures each cell
// (wall time, simulated CONGEST rounds and messages, allocations,
// triangles found, output checksum), and emits versioned machine-readable
// BENCH_*.json reports that CI tracks across commits.
//
// The moving parts:
//
//   - Scenario: a named graph instance factory (family, parameter
//     string, and a deterministic seed-taking build function).
//     ShortScenarios / FullScenarios are the standard matrices; see
//     README.md for how to add one.
//   - Algorithm: a named kernel run against a scenario's graph view,
//     returning a Result (triangles, checksum, congest stats).
//     Algorithms() lists the standard set: the sequential brute-force
//     oracle, the sharded parallel kernel, the DLP CONGESTED-CLIQUE
//     baseline, the naive CONGEST baseline, the paper's decomposition
//     pipeline, and the engine round-throughput probe.
//   - Run: executes the matrix and produces a Report; Report.Write emits
//     BENCH_<created-unix>.json (suffixed on collision).
//   - Compare: diffs a current report against a checked-in baseline,
//     flagging output mismatches (hard failures) and wall-time
//     regressions beyond a tolerance, normalized by each machine's
//     calibration loop so baselines survive hardware changes.
//
// Determinism contract: for a fixed seed every cell's triangles,
// checksum, rounds, CONGEST rounds, and messages are identical across
// runs and machines; only wall time, allocation counts, and the
// calibration constant vary.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/harness"
)

// SchemaVersion identifies the BENCH_*.json layout; bump on breaking
// changes and teach Compare about the old one if history must survive.
const SchemaVersion = "dexpander-bench/v1"

// Scenario is one graph instance of the matrix.
type Scenario struct {
	// Family is the generator key, e.g. "gnp" or "torus".
	Family string
	// Params is a human-readable parameter string, e.g. "n=256 p=0.10".
	// (Family, Params) identifies the scenario in baseline comparisons,
	// so keep it stable and seed-free.
	Params string
	// Build constructs the instance; it must be deterministic in seed.
	Build func(seed uint64) *graph.Graph
}

// Result is what one algorithm produced on one scenario.
type Result struct {
	// Triangles is the number of distinct triangles found (0 for
	// non-triangle algorithms such as the engine probe).
	Triangles int
	// Checksum digests the output for cross-run validation: equal inputs
	// and seeds must yield equal checksums on every machine.
	Checksum uint64
	// Stats carries simulated CONGEST costs when the algorithm runs on
	// the engine (zero otherwise).
	Stats congest.Stats
}

// Algorithm is one column of the matrix.
type Algorithm struct {
	// Name identifies the algorithm in cells and baselines.
	Name string
	// Run executes the kernel on the view.
	Run func(view *graph.Sub, seed uint64) (Result, error)
}

// Cell is one measured (scenario, algorithm) pair.
type Cell struct {
	Scenario      string `json:"scenario"`
	Params        string `json:"params"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	Algorithm     string `json:"algorithm"`
	WallNS        int64  `json:"wall_ns"`
	Rounds        int    `json:"rounds,omitempty"`
	CongestRounds int    `json:"congest_rounds,omitempty"`
	Messages      int64  `json:"messages,omitempty"`
	Allocs        uint64 `json:"allocs"`
	Bytes         uint64 `json:"bytes"`
	Triangles     int    `json:"triangles"`
	Checksum      string `json:"checksum"`
	Error         string `json:"error,omitempty"`
}

// Key identifies the cell across reports.
func (c Cell) Key() string {
	return c.Scenario + "|" + c.Params + "|" + c.Algorithm
}

// Report is the versioned top-level BENCH_*.json document.
type Report struct {
	Schema      string `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        uint64 `json:"seed"`
	CalibNS     int64  `json:"calib_ns"`
	Cells       []Cell `json:"cells"`
	// Tables are harness experiment tables with typed cells, so one
	// BENCH_*.json carries both the raw matrix cells and the
	// theorem-facing rows as numbers.
	Tables []*harness.Table `json:"tables,omitempty"`
}

// NewTableReport returns an empty report (no matrix cells, no
// calibration run) for emitting experiment tables through the bench
// writer — the path the trianglebench CLI uses.
func NewTableReport(seed uint64) *Report {
	return newReport(seed)
}

// Options configures a matrix run.
type Options struct {
	// Seed drives every scenario build and algorithm run.
	Seed uint64
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

// Run executes the full scenario x algorithm matrix and returns the
// report. Individual cell failures are recorded in the cell's Error field
// rather than aborting the matrix, so one broken kernel does not hide
// every other measurement.
func Run(scenarios []Scenario, algorithms []Algorithm, opt Options) *Report {
	rep := newReport(opt.Seed)
	rep.CalibNS = Calibrate()
	for _, sc := range scenarios {
		g := sc.Build(opt.Seed)
		view := graph.WholeGraph(g)
		for _, alg := range algorithms {
			cell := measure(sc, alg, g, view, opt.Seed)
			rep.Cells = append(rep.Cells, cell)
			if opt.Progress != nil {
				status := fmt.Sprintf("%-22s %-28s %-12s %8.2fms  tri=%d",
					sc.Family, sc.Params, alg.Name,
					float64(cell.WallNS)/1e6, cell.Triangles)
				if cell.Error != "" {
					status += "  ERROR: " + cell.Error
				}
				opt.Progress(status)
			}
		}
	}
	return rep
}

// Repeat policy: each cell runs at least measureMinReps and up to
// measureMaxReps times (stopping once the cumulative time crosses
// measureBudgetNS) and keeps the fastest repetition — min-of-N is the
// standard robust wall-clock estimator, and even the slowest cells get a
// second sample so the CI regression gate never judges from a single
// measurement. The extra repetitions double as an in-process determinism
// check (every rep must produce the same checksum and stats for the same
// seed).
const (
	measureMinReps  = 2
	measureMaxReps  = 5
	measureBudgetNS = 250_000_000
)

// measure times one cell with allocation accounting.
func measure(sc Scenario, alg Algorithm, g *graph.Graph, view *graph.Sub, seed uint64) Cell {
	cell := Cell{
		Scenario:  sc.Family,
		Params:    sc.Params,
		N:         g.N(),
		M:         g.M(),
		Algorithm: alg.Name,
	}
	var cumulative int64
	var best Result
	for rep := 0; rep < measureMaxReps; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := alg.Run(view, seed)
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			cell.Error = err.Error()
			return cell
		}
		if rep == 0 {
			best = res
		} else if res != best {
			cell.Error = fmt.Sprintf(
				"nondeterministic output: rep %d returned %+v, rep 0 returned %+v",
				rep, res, best)
			return cell
		}
		if rep == 0 || wall < cell.WallNS {
			cell.WallNS = wall
			cell.Allocs = after.Mallocs - before.Mallocs
			cell.Bytes = after.TotalAlloc - before.TotalAlloc
		}
		cumulative += wall
		if rep+1 >= measureMinReps && cumulative >= measureBudgetNS {
			break
		}
	}
	cell.Triangles = best.Triangles
	cell.Checksum = fmt.Sprintf("fnv64:%016x", best.Checksum)
	cell.Rounds = best.Stats.Rounds
	cell.CongestRounds = best.Stats.CongestRounds
	cell.Messages = best.Stats.Messages
	return cell
}

// newReport returns a report header for this process; every report
// constructor (the matrix Run, NewTableReport) goes through it so header
// fields stay in one place.
func newReport(seed uint64) *Report {
	return &Report{
		Schema:      SchemaVersion,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        seed,
	}
}

var (
	calibOnce   sync.Once
	calibCached int64
)

// Calibrate measures a fixed CPU-bound reference workload (a splitmix-style
// integer scramble) and returns its wall time in nanoseconds. Compare
// normalizes every wall time by this constant, which turns absolute cell
// times into machine-relative ratios: a checked-in baseline from one
// machine then transfers to CI hardware of a different speed, as long as
// relative algorithm costs are stable. Best-of-three to shed scheduler
// noise; measured once per process (multi-section runs reuse it).
func Calibrate() int64 {
	calibOnce.Do(func() { calibCached = calibrate() })
	return calibCached
}

func calibrate() int64 {
	best := int64(1<<63 - 1)
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		var acc uint64
		for i := 0; i < 20_000_000; i++ {
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			acc += x
		}
		elapsed := time.Since(start).Nanoseconds()
		if acc == 0 { // defeat dead-code elimination
			elapsed++
		}
		if elapsed < best {
			best = elapsed
		}
	}
	return best
}
