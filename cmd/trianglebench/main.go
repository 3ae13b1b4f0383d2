// Command trianglebench reproduces the paper's triangle enumeration
// comparison, harness experiment E2 (Theorem 2): it runs our algorithm,
// the Dolev–Lenzen–Peled clique baseline, and the naive CONGEST baseline
// on G(n, 1/2) instances and prints the measured round table plus the
// scaling fit. -sizes runs the same comparison at the given sizes, and
// -all runs every experiment of the harness list.
//
// With -json DIR the tables are also emitted through the bench writer as
// a machine-readable BENCH_*.json report (the same schema the
// benchrunner and CI use), so experiment tables land in the perf
// trajectory instead of only on stdout.
//
// With -kernel {rank,2d,auto} the command instead runs one
// shared-memory triangle kernel on the graph selected by the standard
// -graph/-size/... flags (default: a Barabási–Albert hub graph, the
// shape the rank and 2d kernels are built for) and prints the count,
// the output checksum, and the wall time — the quickest way to compare
// kernels on a single instance.
//
// Examples:
//
//	trianglebench -sizes 24,48,96 -seed 1 -json bench-out
//	trianglebench -kernel rank -graph barabasi-albert -size 65536 -d 8
//	trianglebench -kernel 2d -graph chung-lu -size 4096
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dexpander/internal/bench"
	"dexpander/internal/cli"
	"dexpander/internal/graph"
	"dexpander/internal/harness"
	"dexpander/internal/triangle"
)

func main() { cli.Main("trianglebench", run) }

func run() error {
	var (
		all     = flag.Bool("all", false, "run every experiment table (E1..E11), not just triangles")
		szs     = flag.String("sizes", "", "comma-separated sizes for a custom scaling run")
		jsonDir = flag.String("json", "", "also write the tables as a BENCH_*.json report into this directory")
		kernel  = flag.String("kernel", "", "run one local kernel (rank, 2d, or auto) on the -graph selection instead of the experiment tables")
		workers = flag.Int("workers", 0, "worker count for -kernel runs (0 = GOMAXPROCS)")
	)
	// The shared graph flag block (including -seed) drives -kernel runs;
	// its seed doubles as the experiment tables' seed.
	gf := &cli.GraphFlags{Family: "barabasi-albert", Size: 4096, D: 8, Seed: 1}
	gf.Register(flag.CommandLine)
	flag.Parse()
	seed := gf.Seed

	if *kernel != "" {
		return runKernel(*kernel, *workers, gf)
	}

	var tables []*harness.Table
	if *szs != "" && !*all {
		sizes, err := parseSizes(*szs)
		if err != nil {
			return err
		}
		t, err := harness.TriangleComparison(sizes, seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		tables = append(tables, t)
	} else {
		for _, e := range harness.Experiments {
			if !*all && e.Name != "E2" {
				continue
			}
			t, err := e.Run(harness.Default, seed)
			if err != nil {
				return err
			}
			fmt.Println(t)
			tables = append(tables, t)
		}
	}

	if *jsonDir != "" {
		rep := bench.NewTableReport(seed)
		rep.Tables = tables
		path, err := rep.Write(*jsonDir)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runKernel is the single-instance kernel mode: build the selected
// graph, run the selected kernel once, print what the bench matrix's
// skewed cells would record (count, checksum, wall time).
func runKernel(name string, workers int, gf *cli.GraphFlags) error {
	k, err := triangle.ParseKernel(name)
	if err != nil {
		return err
	}
	g, err := gf.Build()
	if err != nil {
		return err
	}
	view := graph.WholeGraph(g)
	var (
		count    int
		checksum uint64
	)
	start := time.Now()
	if k == triangle.Kernel2D {
		count = triangle.CountParallel2D(view, workers)
		checksum = triangle.HashWords(uint64(count))
	} else {
		set := triangle.SetKernel(view, workers, k)
		count = set.Len()
		checksum = set.Checksum()
	}
	wall := time.Since(start)
	fmt.Printf("%s n=%d m=%d kernel=%s workers=%d triangles=%d checksum=fnv64:%016x wall=%v\n",
		gf.Family, g.N(), g.M(), k, workers, count, checksum, wall)
	return nil
}

func parseSizes(csv string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
