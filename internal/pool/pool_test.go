package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, req := range []int{0, -1, -100} {
		if got := Workers(req); got != gmp {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS = %d", req, got, gmp)
		}
	}
	for _, req := range []int{1, 2, 64} {
		if got := Workers(req); got != req {
			t.Errorf("Workers(%d) = %d", req, got)
		}
	}
}

// TestConcurrent pins when a pool runs more than one job at a time, the
// condition under which the Suite runner and the service step network
// jobs serially.
func TestConcurrent(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n int
		want       bool
	}{
		{2, 4, true},  // two jobs at a time
		{8, 2, true},  // two jobs on a wider pool
		{1, 4, false}, // one job at a time
		{4, 1, false}, // one job
		{4, 0, false},
		{0, 4, gmp > 1}, // GOMAXPROCS workers
		{0, 1 << 62, gmp > 1},
	}
	for _, c := range cases {
		if got := Concurrent(c.workers, c.n); got != c.want {
			t.Errorf("Concurrent(%d, %d) = %v, want %v", c.workers, c.n, got, c.want)
		}
	}
}

func TestRunIndexedRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		seen := make([]bool, 37)
		var mu sync.Mutex
		err := RunIndexed(context.Background(), len(seen), workers, func(i int) {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, s := range seen {
			if !s {
				t.Errorf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

// TestRunIndexedCancelledBeforeDispatchRunsNothing is the regression
// test for nondeterministic dispatch after cancellation: a bare select
// between the job handoff and ctx.Done() picks randomly among ready
// cases, so a pre-cancelled context used to let some jobs through
// whenever a worker happened to be parked on the channel. The fixed feed
// loop checks ctx.Err() before every offer, so a context cancelled
// before dispatch deterministically runs zero jobs — on every iteration.
func TestRunIndexedCancelledBeforeDispatchRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for iter := 0; iter < 200; iter++ {
		var ran atomic.Int64
		err := RunIndexed(ctx, 64, 8, func(i int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("iter %d: err = %v, want context.Canceled", iter, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("iter %d: %d jobs ran under a context cancelled before dispatch", iter, n)
		}
	}
}

// TestRunIndexedCancelMidRunStopsDispatch checks the bound on dispatch
// after a mid-run cancellation: with one worker, cancelling from inside
// run(i) allows at most the single index already being offered to slip
// through; dispatch then stops.
func TestRunIndexedCancelMidRunStopsDispatch(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		err := RunIndexed(ctx, 1000, 1, func(i int) {
			ran++
			if i == 5 {
				cancel()
			}
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("iter %d: err = %v, want context.Canceled", iter, err)
		}
		// Jobs 0..5 ran; job 6 may have been mid-offer when cancel fired.
		if ran > 7 {
			t.Fatalf("iter %d: %d jobs ran after cancellation at job 5 (want <= 7)", iter, ran)
		}
	}
}

func TestRunDrainsChannel(t *testing.T) {
	for _, workersN := range []int{0, 1, 3, 100} {
		jobs := make(chan int, 64)
		for i := 0; i < 37; i++ {
			jobs <- i
		}
		close(jobs)
		seen := make([]bool, 37)
		var mu sync.Mutex
		err := Run(context.Background(), jobs, workersN, func(i int) {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workersN, err)
		}
		for i, s := range seen {
			if !s {
				t.Errorf("workers=%d: job %d never ran", workersN, i)
			}
		}
	}
}

// TestRunCancelledStopsDispatchAndDrains: cancelling the context stops
// dispatch deterministically (values still buffered in jobs are never
// run) while the in-flight call completes before Run returns.
func TestRunCancelledStopsDispatchAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make(chan int, 16)
	for i := 0; i < 16; i++ {
		jobs <- i
	}
	inflight := make(chan struct{})
	finished := false
	var ran atomic.Int64
	err := Run(ctx, jobs, 1, func(i int) {
		ran.Add(1)
		if i == 0 {
			close(inflight)
			cancel()
			// Simulate real work after cancellation: the drain contract
			// says this call still completes before Run returns.
			finished = true
		}
	})
	<-inflight
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !finished {
		t.Error("Run returned before the in-flight job completed")
	}
	// Job 0 ran; job 1 may have been mid-offer when cancel fired.
	if n := ran.Load(); n > 2 {
		t.Errorf("%d jobs ran after cancellation at job 0 (want <= 2)", n)
	}
}

func TestRunIndexedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := 0
	err := RunIndexed(ctx, 1000, 1, func(i int) {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 5 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran >= 1000 {
		t.Error("cancellation did not stop dispatch")
	}
}
