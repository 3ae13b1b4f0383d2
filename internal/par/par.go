// Package par is the deterministic fan-out helper behind the host-side
// component-parallel pipelines (core.Decompose's phase tasks,
// triangle.Enumerate's per-component loop, the shared-memory triangle
// kernel's row ranges, nibble's walk pools). It only
// schedules: callers keep determinism by drawing every seed before
// dispatch and merging results by task index afterwards, so the worker
// count never influences outputs — only wall time. Cancellation reaches
// it on the context: ForEachContext probes ctx.Done() before each task,
// so a canceled fan-out stops at the next task boundary. Tracing stays
// with the caller, which opens any per-task span inside fn.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

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

// ForEachContext is ForEach under a context: ctx.Done() is read once,
// and before each task starts a non-blocking receive on it is probed.
// Once ctx is done no further tasks begin; tasks already running finish
// their current fn call, so a caller is released within one task of the
// cancellation. ctx's error is returned. An uncanceled run returns nil
// having executed exactly the calls ForEach would, in a schedule drawn
// from the same shared counter, so outputs stay bit-identical. A ctx
// whose Done is nil (context.Background) is never probed.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if canceled(done) {
				return ctx.Err()
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if canceled(done) {
					stopped.Store(true)
					return
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
	if stopped.Load() {
		// Err is non-nil and fixed once Done is closed.
		return ctx.Err()
	}
	return nil
}

// canceled reports whether done, a context's Done channel, is closed; a
// nil done is never probed.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
