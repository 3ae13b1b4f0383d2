package core

import (
	"context"
	"fmt"
	"sort"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
)

// BackendInfo describes one registered decomposition backend.
type BackendInfo struct {
	// Name is the registry key and the value callers select by
	// ("cs19", "det", "par-cmps").
	Name string
	// Description is a one-line summary for docs and CLI help.
	Description string
	// Deterministic reports whether the output is a pure function of the
	// view and the non-Seed Options fields: independent of Options.Seed,
	// Options.Workers, GOMAXPROCS, and the process it runs in.
	Deterministic bool
	// CostHint ranks expected compute cost relative to the other
	// backends (lower = cheaper). Auto selection tries backends in
	// ascending CostHint order.
	CostHint int
}

// Backend is one way of producing a Decomposition: its registry entry
// and the function that runs it. Backends are registered once and
// shared, so they are safe for concurrent use, and their output is
// bit-identical for every Options.Workers value.
type Backend struct {
	info BackendInfo
	run  func(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error)
}

// Info describes the backend.
func (b Backend) Info() BackendInfo { return b.info }

// Decompose is DecomposeContext under context.Background.
func (b Backend) Decompose(view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
	return b.DecomposeContext(context.Background(), view, opt)
}

// DecomposeContext runs the backend on the view, probing ctx and
// tracing under its span as the package-level DecomposeContext does. The
// returned stats carry the simulated CONGEST cost where the backend
// models one (zero for pure host paths).
func (b Backend) DecomposeContext(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
	return b.run(ctx, view, opt)
}

// backends is the static registry, keyed by BackendInfo.Name — the same
// closed-set idiom as gen's family registry: the set is fixed at compile
// time, lookups validate against it, and BackendNames feeds CLI help.
var backends = map[string]Backend{
	"cs19": {
		info: BackendInfo{
			Name:        "cs19",
			Description: "randomized Theorem 1 pipeline (Nibble sparse cuts, exponential-shift LDD); seeded",
			CostHint:    30,
		},
		run: func(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
			return withStats(DecomposeContext(ctx, view, opt, SeqSubroutines{Preset: opt.Preset, Workers: opt.Workers}))
		},
	},
	"det": {
		info: BackendInfo{
			Name:          "det",
			Description:   "derandomized Theorem 1 pipeline (ball-growing LDD, greedy deterministic sweep cuts); seed-independent",
			Deterministic: true,
			CostHint:      20,
		},
		run: decomposeDet,
	},
	"par-cmps": {
		info: BackendInfo{
			Name:        "par-cmps",
			Description: "repeated low-diameter clustering with boundary-linked recursion (CMPS); seeded, fast host path",
			CostHint:    10,
		},
		run: func(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
			return withStats(decomposeCMPS(ctx, view, opt))
		},
	},
}

// withStats adapts a Theorem 1 run to a backend's result shape: the
// stats are the decomposition's own.
func withStats(dec *Decomposition, err error) (*Decomposition, congest.Stats, error) {
	if err != nil {
		return nil, congest.Stats{}, err
	}
	return dec, dec.Stats, nil
}

// BackendNames lists the registered backends, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupBackend resolves a backend by name.
func LookupBackend(name string) (Backend, error) {
	b, ok := backends[name]
	if !ok {
		return Backend{}, fmt.Errorf("core: unknown backend %q (known: %v)", name, BackendNames())
	}
	return b, nil
}

// BackendsByCost returns the registered backends in ascending CostHint
// order (ties broken by name), the order auto selection probes them in.
func BackendsByCost() []Backend {
	out := make([]Backend, 0, len(backends))
	for _, b := range backends {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Info(), out[j].Info()
		if bi.CostHint != bj.CostHint {
			return bi.CostHint < bj.CostHint
		}
		return bi.Name < bj.Name
	})
	return out
}

// DecomposeAuto is DecomposeAutoContext under context.Background.
func DecomposeAuto(view *graph.Sub, opt Options, bound float64) (*Decomposition, congest.Stats, string, error) {
	return DecomposeAutoContext(context.Background(), view, opt, bound)
}

// DecomposeAutoContext implements backend=auto: it runs the registered
// backends in ascending cost order under ctx and returns the first
// result whose independently measured inter-cluster edge fraction
// (InterFraction, recomputed from the final mask rather than trusted
// from the run's own counters) meets the bound. The selection is a
// verification, not a prediction: the returned decomposition provably
// satisfies InterFraction <= bound on this input. If no backend meets
// the bound the error reports every attempt.
func DecomposeAutoContext(ctx context.Context, view *graph.Sub, opt Options, bound float64) (*Decomposition, congest.Stats, string, error) {
	if !(bound > 0 && bound < 1) {
		return nil, congest.Stats{}, "", fmt.Errorf("%w: auto bound = %v not in (0,1)", ErrBadEps, bound)
	}
	var attempts []string
	for _, b := range BackendsByCost() {
		name := b.Info().Name
		dec, stats, err := b.DecomposeContext(ctx, view, opt)
		if err != nil {
			return nil, congest.Stats{}, "", fmt.Errorf("core: auto backend %s: %w", name, err)
		}
		if f := dec.InterFraction(view); f <= bound {
			return dec, stats, name, nil
		} else {
			attempts = append(attempts, fmt.Sprintf("%s: inter-fraction %.4f", name, f))
		}
	}
	return nil, congest.Stats{}, "", fmt.Errorf("core: no backend met inter-cluster bound %v (%v)", bound, attempts)
}
