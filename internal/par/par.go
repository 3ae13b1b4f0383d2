// Package par is the deterministic fan-out helper behind the host-side
// component-parallel pipelines (core.Decompose's phase tasks,
// triangle.Enumerate's per-component loop, nibble's walk pools). It only
// schedules: callers keep determinism by drawing every seed before
// dispatch and merging results by task index afterwards, so the worker
// count never influences outputs — only wall time. Cancellation reaches
// it on the context (ForEachContext); tracing stays with the caller,
// which opens any per-task span inside fn.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Checkpoint is the cooperative-cancellation probe hot loops consult at
// task and loop boundaries (every ForEachContext task, the rank
// kernel's per-rank loop). A nil Checkpoint means "never canceled" and
// costs nothing; a non-nil one must be cheap (the context-backed probe
// below is one non-blocking channel receive). Once it returns a non-nil
// error the computation winds down and surfaces that error — it never
// changes outputs of uncanceled runs.
type Checkpoint func() error

// CheckpointFromContext adapts a context into a Checkpoint: a
// non-blocking probe of ctx.Done() returning ctx.Err() once the context
// is canceled or past its deadline. A nil or never-canceled context
// yields a nil Checkpoint, keeping the hot path free of even the probe.
func CheckpointFromContext(ctx context.Context) Checkpoint {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
}

// Workers resolves a requested worker count: non-positive means
// GOMAXPROCS. ForEach further clamps to the task count, so no idle
// goroutines are spawned.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns when all calls have finished. With workers <= 1 (or n <= 1)
// it degenerates to an inline loop on the caller's goroutine — the serial
// execution the equivalence tests oracle against. Tasks are handed out in
// index order through a shared counter; fn must write results only into
// its own index's slot. It is ForEachContext under context.Background.
func ForEach(workers, n int, fn func(i int)) {
	_ = ForEachContext(context.Background(), workers, n, fn)
}

// ForEachContext is ForEach under a context: ctx's checkpoint
// (CheckpointFromContext) is probed before each task starts, and once
// ctx is done no further tasks begin — tasks already running finish
// their current fn call, so a caller is released within one task (one
// "checkpoint interval") of the cancellation. ctx's error is returned;
// an uncanceled run returns nil having executed exactly the calls
// ForEach would, in a schedule drawn from the same shared counter, so
// outputs stay bit-identical. A never-canceled ctx skips the probe.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	cp := CheckpointFromContext(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cp != nil {
				if err := cp(); err != nil {
					return err
				}
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				if cp != nil {
					if err := cp(); err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}
