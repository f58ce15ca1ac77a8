// Package pool provides the bounded-worker dispatch primitives shared by
// the Suite runner, the experiment harness, and the serving layer.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count to the effective pool size:
// any value <= 0 means GOMAXPROCS. Every consumer of a -parallel style
// knob (the Suite runner, the experiment harness, the CLIs, the service)
// resolves through this one function so the default is consistent
// everywhere.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Concurrent reports whether a pool of workers workers (resolved per
// Workers) runs more than one of n jobs at a time. The Suite runner and
// the service then step network jobs serially: a worker team per job
// would only compete for the cores the pool already keeps busy.
func Concurrent(workers, n int) bool {
	return min(Workers(workers), n) > 1
}

// startPool starts n goroutines draining jobs and returns a WaitGroup
// that completes when jobs closes and every dispatched call has
// returned. It is the single worker loop behind RunIndexed and Run, so
// both share the drain guarantee: in-flight run calls always finish.
func startPool[T any](jobs <-chan T, n int, run func(T)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				run(j)
			}
		}()
	}
	return &wg
}

// RunIndexed invokes run(i) for i in [0, n) across a bounded worker pool
// (workers <= 0 means GOMAXPROCS, per Workers) and blocks until every
// dispatched call returns. Dispatching stops early when ctx is
// cancelled; indices not dispatched are simply never run. Returns
// ctx.Err().
//
// Cancellation cuts dispatch deterministically: the feed loop checks
// ctx.Err() before offering each index, so once ctx is done no index
// whose offer had not already begun can be dispatched. (A bare select
// between the handoff and ctx.Done() chooses randomly among ready cases,
// which used to let dispatch keep winning after cancellation.) The one
// index already being offered when ctx fires may still be taken by a
// worker that was simultaneously ready — an unavoidable race of the
// unbuffered handoff — so a caller observing cancellation from inside
// run can see at most one extra call, never an unbounded stream.
func RunIndexed(ctx context.Context, n, workers int, run func(i int)) error {
	workers = min(Workers(workers), n)
	jobs := make(chan int)
	wg := startPool(jobs, workers, run)
feed:
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break feed
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return ctx.Err()
}

// Run invokes run for every value received on jobs across a bounded
// worker pool, until jobs is closed or ctx is cancelled, and blocks
// until every dispatched call returns — in-flight work always drains.
// It is the streaming sibling of RunIndexed with the same deterministic
// cancellation contract: the feed loop checks ctx.Err() before every
// receive, so once ctx is done no further value is taken from jobs
// (values left in jobs are simply never run; the caller owns marking
// them skipped). A value already received when ctx fires is still
// dispatched and run — a received job is never lost, at the cost of at
// most one dispatch after cancellation (the same one-job slack
// RunIndexed documents for an offer in flight). Returns ctx.Err().
//
// The long-running service executor is the main consumer: submitted jobs
// flow through a buffered channel into Run, and a drain (SIGTERM)
// cancels ctx so queued jobs stop dispatching while running ones finish.
func Run[T any](ctx context.Context, jobs <-chan T, n int, run func(T)) error {
	inner := make(chan T)
	wg := startPool(inner, Workers(n), run)
feed:
	for {
		if ctx.Err() != nil {
			break feed
		}
		select {
		case j, ok := <-jobs:
			if !ok {
				break feed
			}
			inner <- j // commit: a received job is always dispatched
		case <-ctx.Done():
			break feed
		}
	}
	close(inner)
	wg.Wait()
	return ctx.Err()
}
