// Package par is the deterministic fan-out helper behind the host-side
// component-parallel pipelines (core.Decompose's phase tasks,
// triangle.Enumerate's per-component loop, nibble's trial pool). It only
// schedules: callers keep determinism by drawing every seed before
// dispatch and merging results by task index afterwards, so the worker
// count never influences outputs — only wall time.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dexpander/internal/obs"
)

// Checkpoint is the cooperative-cancellation probe threaded through the
// long-running kernels (core.Decompose's phase tasks and level loops,
// triangle.Enumerate's component loop, the counting kernels' shard and
// block-triple loops). A nil Checkpoint means "never canceled" and costs
// nothing; a non-nil one is consulted at task boundaries and must be
// cheap (the context-backed probe below is one non-blocking channel
// receive). Once it returns a non-nil error the computation winds down
// and surfaces that error — it never changes outputs of uncanceled runs.
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
// its own index's slot. It is ForEachCheck with no checkpoint.
func ForEach(workers, n int, fn func(i int)) {
	_ = ForEachCheck(workers, n, nil, fn)
}

// ForEachCheck is ForEach with a cooperative-cancellation probe: cp
// (when non-nil) is consulted before each task starts, and once it
// reports an error no further tasks begin — tasks already running finish
// their current fn call, so a caller is released within one task (one
// "checkpoint interval") of the cancellation. The first checkpoint error
// is returned; an uncanceled run returns nil having executed exactly the
// calls ForEach would, in a schedule drawn from the same shared counter,
// so outputs stay bit-identical. A nil cp skips the probe entirely.
func ForEachCheck(workers, n int, cp Checkpoint, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
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

// ForEachCheckSpan is ForEachCheck with per-task tracing: when sp is
// non-nil every task runs under its own child span named name with a
// "task" attribute holding the task index (tasks are handed out from
// the same deterministic index space ForEach uses, so the index
// identifies the work item). Each task's span is created and ended on
// the worker goroutine running it; spans only read the shared
// parent's immutable identity, so concurrent tasks are safe. With a
// nil sp this is exactly ForEachCheck — the probe costs one pointer
// test, keeping tracing off the hot path.
func ForEachCheckSpan(workers, n int, cp Checkpoint, sp *obs.Span, name string, fn func(i int)) error {
	if sp == nil {
		return ForEachCheck(workers, n, cp, fn)
	}
	return ForEachCheck(workers, n, cp, func(i int) {
		child := sp.Child(name)
		child.AttrInt("task", i)
		fn(i)
		child.End()
	})
}
