package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

// TestDecomposeCheckpointIsTransparent pins the cancellation hook's
// no-op contract: a live, never-canceled context must leave the
// decomposition bit-identical to a run without one — same labels, same
// stats, same removal accounting.
func TestDecomposeCheckpointIsTransparent(t *testing.T) {
	g := gen.RingOfCliques(6, 12, 3)
	view := graph.WholeGraph(g)
	opt := Options{Eps: 0.6, K: 2, Preset: nibble.Practical, Seed: 3}
	plain, err := Decompose(view, opt, SeqSubroutines{Preset: nibble.Practical})
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	checked, err := DecomposeContext(live, view, opt, SeqSubroutines{Preset: nibble.Practical})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("uncanceled checkpointed run diverged:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

// TestDecomposePreCanceled: a context canceled before the call returns
// its error without running any subroutine.
func TestDecomposePreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Dumbbell(16, 1, 1)
	opt := Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: 1}
	subs := &cancelOnCut{Subroutines: SeqSubroutines{Preset: nibble.Practical}, cancel: cancel}
	_, err := DecomposeContext(ctx, graph.WholeGraph(g), opt, subs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled decompose: %v", err)
	}
	if n := subs.cuts.Load(); n != 0 {
		t.Fatalf("pre-canceled decompose ran %d sparse cuts", n)
	}
}

// cancelOnCut wraps Subroutines and cancels the run's context inside
// every SparseCut call, counting the calls.
type cancelOnCut struct {
	Subroutines
	cancel context.CancelFunc
	cuts   atomic.Int64
}

func (c *cancelOnCut) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	c.cuts.Add(1)
	c.cancel()
	return c.Subroutines.SparseCut(comm, active, phi, seed)
}

// TestDecomposeCancelsMidRun: canceling the context inside the first
// sparse cut aborts the pipeline with context.Canceled instead of
// finishing, under both the inline and the fanned-out task schedulers,
// and with fewer sparse cuts than the uncanceled run makes.
func TestDecomposeCancelsMidRun(t *testing.T) {
	g := gen.RingOfCliques(6, 12, 3)
	opt := Options{Eps: 0.6, K: 2, Preset: nibble.Practical, Seed: 3}
	full := &cancelOnCut{Subroutines: SeqSubroutines{Preset: nibble.Practical}, cancel: func() {}}
	if _, err := Decompose(graph.WholeGraph(g), opt, full); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opt.Workers = workers
		subs := &cancelOnCut{Subroutines: SeqSubroutines{Preset: nibble.Practical, Workers: workers}, cancel: cancel}
		_, err := DecomposeContext(ctx, graph.WholeGraph(g), opt, subs)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled decompose returned %v", workers, err)
		}
		if got, all := subs.cuts.Load(), full.cuts.Load(); got >= all {
			t.Fatalf("workers=%d: canceled run made %d sparse cuts, the full run %d", workers, got, all)
		}
	}
}
