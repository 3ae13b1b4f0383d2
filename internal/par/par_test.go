package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w < 1 {
		t.Fatalf("Workers(-3) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}

// TestForEachCoversEveryIndexOnce checks the dispatch contract for the
// inline path, the clamped path, and a genuinely fanned-out pool.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 50
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	ForEach(4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

// TestForEachCheckUncanceledMatchesForEach: under a never-canceled (or
// live cancelable) context, ForEachContext runs exactly the calls
// ForEach would.
func TestForEachCheckUncanceledMatchesForEach(t *testing.T) {
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, ctx := range []context.Context{context.Background(), live} {
		for _, workers := range []int{1, 2, 7, 64} {
			const n = 50
			var hits [n]atomic.Int32
			if err := ForEachContext(ctx, workers, n, func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatalf("workers=%d: uncanceled run returned %v", workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
				}
			}
		}
	}
}

// TestForEachCheckStopsOnCancel: once a task cancels the context, no
// further tasks start and ctx's error is surfaced — on both the inline
// and the fanned-out paths.
func TestForEachCheckStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachContext(ctx, workers, 1000, func(i int) {
			if ran.Add(1) >= 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Every worker may finish the task it had in hand, but nothing new
		// starts after the cancel: the count stays far below n.
		if got := ran.Load(); got >= 1000 {
			t.Fatalf("workers=%d: %d tasks ran after cancellation", workers, got)
		}
	}
}

// TestForEachCheckPreCanceled: a context canceled from the start means
// zero tasks run.
func TestForEachCheckPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEachContext(ctx, workers, 10, func(i int) {
			t.Error("task ran under a pre-canceled context")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestCheckpointFromContext covers the adapter's three shapes: nil-able
// contexts yield a nil probe, a live context probes clean, a canceled
// one reports its error.
func TestCheckpointFromContext(t *testing.T) {
	if cp := CheckpointFromContext(nil); cp != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatal("nil context must yield a nil checkpoint")
	}
	if cp := CheckpointFromContext(context.Background()); cp != nil {
		t.Fatal("never-canceled context must yield a nil checkpoint")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cp := CheckpointFromContext(ctx)
	if cp == nil {
		t.Fatal("cancelable context yielded a nil checkpoint")
	}
	if err := cp(); err != nil {
		t.Fatalf("probe before cancel: %v", err)
	}
	cancel()
	if err := cp(); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe after cancel: %v", err)
	}
}
