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

// TestForEachContextProbeAllocatesNothing: the cancellation probe reads
// ctx.Done() once per call and allocates nothing per task, so a fan-out
// of 64 tasks allocates exactly as often as one of 8, serial or not,
// under context.Background and under a live cancelable context.
func TestForEachContextProbeAllocatesNothing(t *testing.T) {
	live, stop := context.WithCancel(context.Background())
	defer stop()
	fn := func(int) {}
	allocs := func(ctx context.Context, workers, n int) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := ForEachContext(ctx, workers, n, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, ctx := range []context.Context{context.Background(), live} {
		if a := allocs(ctx, 1, 8); a != 0 {
			t.Fatalf("serial ForEachContext allocates %v times per call", a)
		}
		if few, many := allocs(ctx, 4, 8), allocs(ctx, 4, 64); many != few {
			t.Fatalf("4 workers allocate %v times for 8 tasks but %v for 64", few, many)
		}
	}
}
