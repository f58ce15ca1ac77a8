package idring

import "testing"

type meta struct {
	origin int64
	ch     int
}

func TestRingRoundTrip(t *testing.T) {
	var r Ring[meta]
	for id := int64(0); id < 100; id++ {
		if got := r.Push(meta{origin: id, ch: int(id % 7)}); got != id {
			t.Fatalf("Push assigned %d, want %d", got, id)
		}
	}
	if r.Live() != 100 {
		t.Fatalf("Live = %d, want 100", r.Live())
	}
	// Out-of-window and double takes miss.
	if _, ok := r.Take(-1); ok {
		t.Error("Take(-1) hit")
	}
	if _, ok := r.Take(100); ok {
		t.Error("Take(next) hit")
	}
	for id := int64(0); id < 100; id += 2 {
		got, ok := r.Take(id)
		if !ok || got.origin != id || got.ch != int(id%7) {
			t.Fatalf("Take(%d) = %+v, %v", id, got, ok)
		}
		if _, ok := r.Take(id); ok {
			t.Fatalf("double Take(%d) hit", id)
		}
		if r.Get(id) != nil {
			t.Fatalf("Get(%d) hit after Take", id)
		}
	}
	if r.Live() != 50 {
		t.Fatalf("Live after takes = %d, want 50", r.Live())
	}
	// The odd ids survive growth and compaction.
	for id := int64(100); id < 300; id++ {
		r.Push(meta{origin: id, ch: 1})
	}
	for id := int64(1); id < 100; id += 2 {
		if got, ok := r.Take(id); !ok || got.origin != id {
			t.Fatalf("Take(%d) after growth = %+v, %v", id, got, ok)
		}
	}
}

// TestRingSteadyStateCompacts: FIFO churn with a bounded live window
// must reclaim dead slots instead of growing the ring — the
// allocation-free steady state the simulator's callers depend on.
func TestRingSteadyStateCompacts(t *testing.T) {
	var r Ring[meta]
	next, taken := int64(0), int64(0)
	for i := 0; i < 100000; i++ {
		r.Push(meta{origin: next, ch: 2})
		next++
		if next-taken > 8 {
			if _, ok := r.Take(taken); !ok {
				t.Fatalf("Take(%d) missed", taken)
			}
			taken++
		}
	}
	if r.Cap() != minRing {
		t.Errorf("ring grew to %d under bounded churn, want %d", r.Cap(), minRing)
	}
	if r.Live() != int(next-taken) {
		t.Errorf("Live = %d, want %d", r.Live(), next-taken)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Push(meta{origin: next})
		r.Take(taken)
		next++
		taken++
	}); allocs != 0 {
		t.Errorf("steady Push/Take allocates %.1f times", allocs)
	}
}

// TestRingOutOfOrderAcrossWrapAndDoubling retires IDs out of order
// while the window first wraps around the ring and then forces it to
// double: every live ID keeps its value and every retired one misses.
func TestRingOutOfOrderAcrossWrapAndDoubling(t *testing.T) {
	var r Ring[int64]
	live := map[int64]bool{}
	push := func(k int) {
		for ; k > 0; k-- {
			id := r.Next()
			r.Push(1000 + id)
			live[id] = true
		}
	}
	take := func(ids ...int64) {
		for _, id := range ids {
			if v, ok := r.Take(id); !ok || v != 1000+id {
				t.Fatalf("Take(%d) = %d, %v", id, v, ok)
			}
			delete(live, id)
		}
	}
	verify := func(step string) {
		t.Helper()
		if r.Live() != len(live) {
			t.Fatalf("%s: Live = %d, want %d", step, r.Live(), len(live))
		}
		for id := int64(-2); id < r.Next()+2; id++ {
			v := r.Get(id)
			if live[id] != (v != nil) || (v != nil && *v != 1000+id) {
				t.Fatalf("%s: Get(%d) = %v, live %v", step, id, v, live[id])
			}
		}
	}

	push(16) // ids 0..15 fill the first ring
	take(3, 0, 9, 1, 2, 15)
	verify("first ring")
	push(4) // reclaims 0..3; ids 16..19 wrap into slots 0..3
	if r.Cap() != minRing || r.Base() != 4 {
		t.Fatalf("after wrap: cap %d base %d, want %d and 4", r.Cap(), r.Base(), minRing)
	}
	verify("wrapped")
	take(12, 17, 4, 19)
	verify("wrapped, retired out of order")
	push(7) // reclaims 4, then the full window [5, 21) doubles
	if r.Cap() != 2*minRing || r.Base() != 5 {
		t.Fatalf("after doubling: cap %d base %d, want %d and 5", r.Cap(), r.Base(), 2*minRing)
	}
	verify("doubled")
	take(26, 5, 20, 8, 16, 22, 6, 14, 25, 7, 13, 18, 24, 10, 21, 11, 23)
	verify("drained")
	if r.Live() != 0 {
		t.Fatalf("Live = %d after draining", r.Live())
	}
}
