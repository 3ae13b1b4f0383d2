package triangle

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/par"
)

// TestEnumerateCheckpointIsTransparent: a never-firing probe is consulted
// but leaves the triangle set and cost accounting bit-identical.
func TestEnumerateCheckpointIsTransparent(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)
	opt := Options{Seed: 9}
	plain, plainStats, err := Enumerate(view, opt)
	if err != nil {
		t.Fatal(err)
	}

	var probes atomic.Int64
	opt.Check = func() error { probes.Add(1); return nil }
	checked, checkedStats, err := Enumerate(view, opt)
	if err != nil {
		t.Fatal(err)
	}
	if probes.Load() == 0 {
		t.Fatal("checkpoint was never consulted")
	}
	if plain.Checksum() != checked.Checksum() || plain.Len() != checked.Len() {
		t.Fatalf("checkpointed enumeration diverged: %d/%#x vs %d/%#x",
			plain.Len(), plain.Checksum(), checked.Len(), checked.Checksum())
	}
	if plainStats != checkedStats {
		t.Fatalf("stats diverged:\nplain   %+v\nchecked %+v", plainStats, checkedStats)
	}
}

// TestEnumerateCanceled: both a pre-canceled context and a probe firing
// mid-run abort the enumeration with the underlying cause.
func TestEnumerateCanceled(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Enumerate(view, Options{Seed: 9, Check: par.CheckpointFromContext(ctx)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled enumerate: %v", err)
	}

	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var probes atomic.Int64
		check := func() error {
			if probes.Add(1) > 5 {
				return boom
			}
			return nil
		}
		_, _, err := Enumerate(view, Options{Seed: 9, Workers: workers, Check: check})
		if !errors.Is(err, boom) {
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
