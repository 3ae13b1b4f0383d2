// Command expanderdecomp runs the paper's (eps, phi)-expander
// decomposition (Theorem 1) on a generated graph and prints the
// decomposition statistics and quality certificate.
//
// The -backend flag selects the decomposition backend from the core
// registry ("cs19", "det", "par-cmps") or "auto", which probes par-cmps,
// cs19 and det in that order and serves the first whose measured
// inter-cluster fraction meets the -max-eps bound (default: -eps). A
// fixed backend is held to -max-eps too when it is set.
//
// Examples:
//
//	expanderdecomp -graph ring -blocks 6 -size 12 -eps 0.6 -k 2 -dist
//	expanderdecomp -graph gnp -size 200 -backend det
//	expanderdecomp -graph dumbbell -size 16 -backend auto -max-eps 0.3
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"

	"dexpander/internal/cli"
	"dexpander/internal/core"
	"dexpander/internal/dnibble"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

func main() { cli.Main("expanderdecomp", run) }

func run() error {
	gf := cli.GraphFlags{Family: "ring", Blocks: 6, Size: 12, Bridges: 1, D: 6, P: 0.5, Seed: 1}
	gf.Register(flag.CommandLine)
	bf := cli.BackendFlags{Backend: "cs19"}
	bf.Register(flag.CommandLine, append(core.BackendNames(), "auto"))
	var (
		eps    = flag.Float64("eps", 0.6, "target inter-cluster edge fraction")
		k      = flag.Int("k", 2, "Theorem 1 trade-off parameter")
		maxEps = flag.Float64("max-eps", 0, "inter-cluster fraction bound the backend's result must meet (0: -eps for auto, unchecked for a fixed backend)")
		dist   = flag.Bool("dist", false, "run the distributed (CONGEST) subroutines and report rounds (cs19 only)")
		dot    = flag.String("dot", "", "write the decomposition as Graphviz DOT to this file")
	)
	flag.Parse()
	if err := bf.Validate(); err != nil {
		return err
	}
	if *dist && bf.Backend != "cs19" {
		return fmt.Errorf("-dist implements only the cs19 backend, not %q", bf.Backend)
	}
	if *dist && *maxEps != 0 {
		return fmt.Errorf("-max-eps does not apply to -dist")
	}

	g, err := gf.Build()
	if err != nil {
		return err
	}
	fmt.Println("graph:", gen.Describe(g))
	view := graph.WholeGraph(g)
	opt := core.Options{Eps: *eps, K: *k, Preset: nibble.Practical, Seed: gf.Seed}
	var dec *core.Decomposition
	if *dist {
		dec, err = core.Decompose(view, opt, dnibble.DistSubroutines{Preset: nibble.Practical})
	} else {
		var served string
		dec, served, err = core.RunBackend(context.Background(), view, opt, bf.Backend, *maxEps)
		if err == nil && bf.Backend == "auto" {
			fmt.Printf("backend:         %s (auto, verified inter-fraction <= %v)\n", served, cmp.Or(*maxEps, *eps))
		}
	}
	if err != nil {
		return err
	}
	if err := dec.CheckPartition(view); err != nil {
		return fmt.Errorf("internal: invalid partition: %w", err)
	}
	q := dec.Evaluate(view)
	fmt.Printf("components:      %d (largest %d, singletons %d)\n",
		dec.Count, q.LargestComponent, dec.Singletons)
	fmt.Printf("eps achieved:    %.4f (target %.4f)\n", dec.EpsAchieved, *eps)
	fmt.Printf("phi target:      %.6f (ladder %v)\n", dec.PhiTarget, dec.PhiLadder)
	fmt.Printf("removed edges:   %d (LDD %d, phase-1 cuts %d, phase-2 peels %d)\n",
		dec.CutEdges, dec.Removed1, dec.Removed2, dec.Removed3)
	fmt.Printf("phase 1 depth:   %d; phase 2 max iterations: %d\n",
		dec.Phase1Depth, dec.Phase2MaxIterations)
	if *dist {
		fmt.Printf("CONGEST rounds:  %d (messages %d)\n", dec.Stats.Rounds, dec.Stats.Messages)
	}
	fmt.Println("quality:        ", q)
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		masked := graph.NewSub(g, view.Members(), dec.FinalMask)
		if err := graph.WriteDOT(f, masked, dec.Labels); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote DOT to", *dot)
	}
	return nil
}
