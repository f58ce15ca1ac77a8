package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Team is a persistent worker team for lockstep fan-out: Dispatch
// applies the same function to every index in [0, n) and blocks until
// all calls return. It exists for hot loops (the network round loop)
// that fan the same bounded index space out thousands of times per
// second, where RunIndexed's channel handoff and per-call goroutine
// wakeups would dominate the work itself.
//
// The index space is partitioned statically: worker w always owns the
// same contiguous index range, so run(i) is never invoked concurrently
// for the same i and any per-index state needs no locking. A Dispatch
// call performs no allocation; workers spin briefly on a generation
// counter and then park on a condition variable, so an idle Team costs
// nothing and an oversubscribed one (more workers than cores, e.g. a
// parallel Suite of parallel networks) degrades gracefully.
//
// Determinism note: Dispatch guarantees nothing about the order run is
// invoked in across workers — callers needing a deterministic fold must
// buffer per index and merge in index order after Dispatch returns (see
// network.Network.step). The return of Dispatch happens-after every
// run call of that generation, so the caller may freely read anything
// the calls wrote.
//
// A Team with workers <= 1 starts no goroutines; Dispatch simply runs
// the loop inline. Close releases the worker goroutines; using a Team
// after Close panics. Teams are not safe for concurrent Dispatch calls.
type Team struct {
	n       int
	workers int
	run     func(i int)

	mu       sync.Mutex
	workCond *sync.Cond // workers wait here for a new generation
	doneCond *sync.Cond // the dispatcher waits here for completion
	closed   bool

	gen  atomic.Uint64 // generation counter; bumped once per Dispatch
	done atomic.Int64  // workers finished with the current generation
}

// teamSpin bounds the busy-wait before a worker or the dispatcher parks
// on its condition variable. Gosched calls are interleaved so a spinning
// goroutine never starves the one it is waiting for on a saturated or
// single-core machine.
const teamSpin = 512

// NewTeam builds a team of workers run-callers over the index space
// [0, n), capped at n; a count of 1 or less means Dispatch runs inline
// with no goroutines.
func NewTeam(n, workers int, run func(i int)) *Team {
	workers = max(min(workers, n), 1)
	t := &Team{n: n, workers: workers, run: run}
	t.workCond = sync.NewCond(&t.mu)
	t.doneCond = sync.NewCond(&t.mu)
	if workers > 1 {
		// Static balanced partition: the first n%workers workers take
		// one extra index.
		base, rem := n/workers, n%workers
		lo := 0
		for w := 0; w < workers; w++ {
			hi := lo + base
			if w < rem {
				hi++
			}
			go t.worker(lo, hi)
			lo = hi
		}
	}
	return t
}

// Workers returns the resolved worker count (>= 1).
func (t *Team) Workers() int { return t.workers }

// Dispatch runs one generation: run(i) for every i in [0, n), across
// the team, returning after all calls complete. With one worker it runs
// the loop inline. It must not be called concurrently with itself or
// with Close, and panics if the team is closed.
func (t *Team) Dispatch() {
	if t.workers <= 1 {
		if t.closed {
			panic("pool: Dispatch on closed Team")
		}
		for i := 0; i < t.n; i++ {
			t.run(i)
		}
		return
	}
	t.done.Store(0)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		panic("pool: Dispatch on closed Team")
	}
	t.gen.Add(1)
	t.workCond.Broadcast()
	t.mu.Unlock()

	want := int64(t.workers)
	for spin := 0; spin < teamSpin; spin++ {
		if t.done.Load() == want {
			return
		}
		if spin%64 == 63 {
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	for t.done.Load() != want {
		t.doneCond.Wait()
	}
	t.mu.Unlock()
}

// Close releases the worker goroutines. Idempotent; nil-safe.
func (t *Team) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closed = true
	t.workCond.Broadcast()
	t.mu.Unlock()
}

// worker owns indices [lo, hi). It spins briefly for the next
// generation, parks on workCond when none arrives, and signals the
// dispatcher through done (and doneCond, in case the dispatcher parked)
// when it finishes its slice.
func (t *Team) worker(lo, hi int) {
	last := uint64(0)
	for {
		gen, ok := t.await(last)
		if !ok {
			return
		}
		last = gen
		for i := lo; i < hi; i++ {
			t.run(i)
		}
		if t.done.Add(1) == int64(t.workers) {
			// Last finisher: wake the dispatcher if it parked. Taking
			// the mutex serializes with doneCond.Wait, so the wakeup
			// cannot be lost.
			t.mu.Lock()
			t.doneCond.Broadcast()
			t.mu.Unlock()
		}
	}
}

// await blocks until a generation newer than last is dispatched,
// returning it, or returns ok=false once the team is closed.
func (t *Team) await(last uint64) (uint64, bool) {
	for spin := 0; spin < teamSpin; spin++ {
		if g := t.gen.Load(); g != last {
			return g, true
		}
		if spin%64 == 63 {
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if g := t.gen.Load(); g != last {
			return g, true
		}
		if t.closed {
			return 0, false
		}
		t.workCond.Wait()
	}
}
