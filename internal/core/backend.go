package core

import (
	"context"
	"fmt"
	"slices"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
)

// Backend is one way of producing a Decomposition. Backends are
// registered once and shared, so they are safe for concurrent use, and
// their output is bit-identical for every Options.Workers value.
type Backend struct {
	name string
	run  func(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, error)
}

// backends is the static registry, in the order auto probes it: cheapest
// first, as the bench matrix's decompose cells measure them. On every
// decompose scenario of the short matrix (2 vCPUs) par-cmps ran in at
// most 0.14 ms, under 2% of cs19's serial time, and det took 2.3–3.8×
// cs19's time. The set is fixed at compile time, the way gen's family
// registry is, and LookupBackend validates against it.
var backends = []Backend{
	{"par-cmps", decomposeCMPS},
	{"cs19", func(ctx context.Context, view *graph.Sub, opt Options) (*Decomposition, error) {
		return DecomposeContext(ctx, view, opt, SeqSubroutines{Preset: opt.Preset, Workers: opt.Workers})
	}},
	{"det", decomposeDet},
}

// RunBackend runs the backend called name on the view under ctx and
// returns its decomposition and the name of the backend that served it.
// A named backend runs alone and, when bound > 0, must meet it: its
// independently measured inter-cluster fraction (InterFraction,
// recomputed from the final mask rather than trusted from the run's own
// counters) at most bound, or the call fails. Name "auto" runs the
// backends in registry order and serves the first whose InterFraction
// meets bound (0 means opt.Eps) — a verification, not a prediction. A
// bound that is neither 0 nor in (0,1) is ErrBadEps; when no run meets
// the bound, the error reports every attempt.
func RunBackend(ctx context.Context, view *graph.Sub, opt Options, name string, bound float64) (*Decomposition, string, error) {
	if !(bound == 0 || (bound > 0 && bound < 1)) {
		return nil, "", fmt.Errorf("%w: bound = %v not 0 or in (0,1)", ErrBadEps, bound)
	}
	probe := backends
	if name == "auto" {
		if bound == 0 {
			bound = opt.Eps
		}
	} else {
		b, err := LookupBackend(name)
		if err != nil {
			return nil, "", err
		}
		probe = []Backend{b}
	}
	var attempts []string
	for _, b := range probe {
		dec, err := b.run(ctx, view, opt)
		if err != nil {
			return nil, "", fmt.Errorf("core: backend %s: %w", b.name, err)
		}
		if bound == 0 {
			return dec, b.name, nil
		}
		f := dec.InterFraction(view)
		if f <= bound {
			return dec, b.name, nil
		}
		attempts = append(attempts, fmt.Sprintf("%s: inter-fraction %.4f", b.name, f))
	}
	return nil, "", fmt.Errorf("core: no backend met inter-cluster bound %v (%v)", bound, attempts)
}

// Decompose runs the backend under context.Background with no bound.
// The returned stats are the decomposition's own.
func (b Backend) Decompose(view *graph.Sub, opt Options) (*Decomposition, congest.Stats, error) {
	dec, err := b.run(context.Background(), view, opt)
	if err != nil {
		return nil, congest.Stats{}, err
	}
	return dec, dec.Stats, nil
}

// DecomposeAuto is RunBackend's "auto" under context.Background, with a
// bound that must lie in (0,1).
func DecomposeAuto(view *graph.Sub, opt Options, bound float64) (*Decomposition, congest.Stats, string, error) {
	if !(bound > 0 && bound < 1) {
		return nil, congest.Stats{}, "", fmt.Errorf("%w: auto bound = %v not in (0,1)", ErrBadEps, bound)
	}
	dec, name, err := RunBackend(context.Background(), view, opt, "auto", bound)
	if err != nil {
		return nil, congest.Stats{}, "", err
	}
	return dec, dec.Stats, name, nil
}

// BackendNames lists the registered backends, sorted.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	slices.Sort(names)
	return names
}

// LookupBackend resolves a backend by name.
func LookupBackend(name string) (Backend, error) {
	for _, b := range backends {
		if b.name == name {
			return b, nil
		}
	}
	return Backend{}, fmt.Errorf("core: unknown backend %q (known: %v)", name, BackendNames())
}
