package triangle

import (
	"context"
	"errors"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

// TestEnumerateCheckpointIsTransparent: a live, never-canceled context
// leaves the triangle set and cost accounting bit-identical.
func TestEnumerateCheckpointIsTransparent(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)
	opt := Options{Seed: 9}
	plain, plainStats, err := Enumerate(view, opt)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	checked, checkedStats, err := EnumerateContext(live, view, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Checksum() != checked.Checksum() || plain.Len() != checked.Len() {
		t.Fatalf("checkpointed enumeration diverged: %d/%#x vs %d/%#x",
			plain.Len(), plain.Checksum(), checked.Len(), checked.Checksum())
	}
	if plainStats != checkedStats {
		t.Fatalf("stats diverged:\nplain   %+v\nchecked %+v", plainStats, checkedStats)
	}
}

// cancelOnCut wraps the decomposition subroutines and cancels the
// enumeration's context inside every SparseCut call.
type cancelOnCut struct {
	core.Subroutines
	cancel context.CancelFunc
}

func (c cancelOnCut) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	c.cancel()
	return c.Subroutines.SparseCut(comm, active, phi, seed)
}

// TestEnumerateCanceled: both a pre-canceled context and one canceled
// inside the first decomposition sparse cut abort the enumeration with
// context.Canceled.
func TestEnumerateCanceled(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EnumerateContext(ctx, view, Options{Seed: 9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled enumerate: %v", err)
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		subs := cancelOnCut{Subroutines: core.SeqSubroutines{Preset: nibble.Practical, Workers: workers}, cancel: cancel}
		_, _, err := EnumerateContext(ctx, view, Options{Seed: 9, Workers: workers, Subs: subs})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-run canceled enumerate: %v", workers, err)
		}
	}
}

// TestCountParallel2DContextCancel covers the counting path: a
// pre-canceled context aborts with its error, a live cancelable context
// (whose checkpoint is probed per block triple) reproduces the exact
// uncanceled count.
func TestCountParallel2DContextCancel(t *testing.T) {
	g := gen.GNP(48, 0.3, 5)
	view := graph.WholeGraph(g)
	want := BruteForce(view).Len()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, workers := range []int{1, 4} {
		if _, err := CountParallel2DContext(canceled, view, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-canceled count: %v", workers, err)
		}
		got, err := CountParallel2DContext(live, view, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: count %d, want %d", workers, got, want)
		}
	}
}

// TestSetKernelContextCancel mirrors the counting coverage for the Set
// entry point, whose checkpoint is probed per rank.
func TestSetKernelContextCancel(t *testing.T) {
	g := gen.GNP(48, 0.3, 5)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, workers := range []int{1, 4} {
		if _, err := SetKernelContext(canceled, view, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-canceled set: %v", workers, err)
		}
		set, err := SetKernelContext(live, view, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if set.Checksum() != want.Checksum() || !set.Equal(want) {
			t.Fatalf("workers=%d: set under a live context diverged", workers)
		}
	}
}
