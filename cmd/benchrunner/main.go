// Command benchrunner runs the scenario-matrix benchmark subsystem and
// emits versioned machine-readable BENCH_*.json reports: per-cell wall
// time, simulated rounds and messages, allocations, triangles found, and
// an output checksum for cross-run validation. It is the binary behind
// CI's perf-tracking job and the substrate every perf PR reports through.
//
// Examples:
//
//	benchrunner -short                       # CI matrix, BENCH_*.json in .
//	benchrunner -short -tables               # plus the E2 and E11 tables
//	benchrunner -out bench-out               # full matrix into bench-out/
//	benchrunner -short -baseline ci/bench_baseline.json
//	benchrunner -short -write-baseline ci/bench_baseline.json
//
// With -baseline the run compares against the checked-in baseline and
// exits non-zero on hard problems (output mismatches, errored or missing
// cells) or wall-time regressions beyond -tolerance; timings are
// normalized by a per-machine calibration loop so baselines transfer
// across hardware.
package main

import (
	"flag"
	"fmt"

	"dexpander/internal/bench"
	"dexpander/internal/cli"
	"dexpander/internal/harness"
)

func main() { cli.Main("benchrunner", run) }

func run() error {
	var (
		short     = flag.Bool("short", false, "run the short CI matrix instead of the full one")
		seed      = flag.Uint64("seed", 1, "random seed for every scenario and algorithm")
		out       = flag.String("out", ".", "directory for the BENCH_*.json report")
		baseline  = flag.String("baseline", "", "baseline BENCH json to compare against (exit 1 on regression)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed relative wall-time growth vs the baseline")
		writeBase = flag.String("write-baseline", "", "also write the report to this exact path (refreshes a checked-in baseline)")
		tables    = flag.Bool("tables", false, "embed the E2 and E11 harness experiment tables in the report")
		quiet     = flag.Bool("quiet", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	opt := bench.Options{Seed: *seed}
	if !*quiet {
		opt.Progress = func(line string) { fmt.Println(line) }
	}

	var rep *bench.Report
	if *short {
		rep = bench.Run(bench.ShortScenarios(), bench.Algorithms(), opt)
	} else {
		rep = bench.Run(bench.FullScenarios(), bench.Algorithms(), opt)
		rep.Merge(bench.Run(bench.LargeLocalScenarios(), bench.LocalAlgorithms(), opt))
	}
	// Decomposition cells run in both modes: the expander-decomposition
	// and enumeration pipelines are the perf surface the baseline gate
	// tracks, and their -seq/-par column pairs must carry identical
	// checksums — the gate thereby re-verifies the parallel pipelines'
	// bit-identity to serial on every CI run.
	rep.Merge(bench.Run(bench.DecompositionScenarios(), bench.DecompositionAlgorithms(), opt))
	// Skewed cells pit the triangle kernels against heavy-tail degree
	// distributions: the enumerate-rank cells carry the full-set
	// checksums the retired merge kernel recorded, so the baseline gate
	// pins the rank kernel's exact output on every CI run, and count-2d
	// must report the same triangle count.
	rep.Merge(bench.Run(bench.SkewedScenarios(), bench.SkewedAlgorithms(), opt))
	// Serving cells drive a live dexpanderd service over loopback HTTP:
	// serve-cold measures the first-query path, serve-hot the cached
	// steady state, and the two cells of one scenario must carry the
	// SAME checksum — the baseline gate thereby re-proves the cache's
	// transparency (hot bytes == cold bytes) on every CI run. serve-dist
	// boots a replica fleet and fans the count across it; its cells must
	// match the scenario's count-2d cells exactly, pinning the
	// distributed total's bit-identity to the local 2D kernel.
	rep.Merge(bench.Run(bench.ServingScenarios(), bench.ServingAlgorithms(), opt))

	if *tables {
		scale := harness.Default
		if *short {
			scale = harness.Small
		}
		for _, run := range []func(harness.Scale, uint64) (*harness.Table, error){
			harness.E2TriangleScaling, harness.E11EngineThroughput,
		} {
			t, err := run(scale, *seed)
			if err != nil {
				return fmt.Errorf("harness tables: %w", err)
			}
			rep.Tables = append(rep.Tables, t)
		}
	}

	path, err := rep.Write(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d tables, calib=%.2fms)\n",
		path, len(rep.Cells), len(rep.Tables), float64(rep.CalibNS)/1e6)

	if *writeBase != "" {
		if err := rep.WriteTo(*writeBase); err != nil {
			return err
		}
		fmt.Println("refreshed baseline", *writeBase)
	}

	if *baseline != "" {
		base, err := bench.Load(*baseline)
		if err != nil {
			return err
		}
		problems := bench.Compare(rep, base, bench.CompareOptions{Tolerance: *tolerance})
		for _, p := range problems {
			fmt.Println(p)
		}
		if len(problems) > 0 {
			return fmt.Errorf("%d problem(s) vs baseline %s", len(problems), *baseline)
		}
		fmt.Printf("baseline check passed vs %s (tolerance %.0f%%)\n", *baseline, *tolerance*100)
	}
	return nil
}
