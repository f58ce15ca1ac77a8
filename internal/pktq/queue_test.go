package pktq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"earmac/internal/mac"
)

func pk(id int64, dest int) mac.Packet {
	return mac.Packet{ID: id, Src: 0, Dest: dest, Injected: id}
}

func TestEmptyQueue(t *testing.T) {
	q := New(10)
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
	if _, ok := q.PopFront(); ok {
		t.Error("PopFront on empty queue succeeded")
	}
	if _, ok := q.PopFrontTo(3); ok {
		t.Error("PopFrontTo on empty queue succeeded")
	}
	if _, ok := q.Front(); ok {
		t.Error("Front on empty queue succeeded")
	}
	if _, ok := q.FrontTo(1); ok {
		t.Error("FrontTo on empty queue succeeded")
	}
	if q.Remove(99) {
		t.Error("Remove on empty queue succeeded")
	}
	if q.Count(0) != 0 || q.Has(0) {
		t.Error("empty queue reports a packet")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New(10)
	for i := int64(0); i < 10; i++ {
		q.Push(pk(i, int(i%3)))
	}
	for i := int64(0); i < 10; i++ {
		p, ok := q.PopFront()
		if !ok || p.ID != i {
			t.Fatalf("PopFront #%d = %v, %v", i, p, ok)
		}
	}
	if q.Len() != 0 {
		t.Error("queue not drained")
	}
}

func TestPerDestFIFO(t *testing.T) {
	q := New(10)
	q.Push(pk(1, 5))
	q.Push(pk(2, 7))
	q.Push(pk(3, 5))
	q.Push(pk(4, 7))
	if p, _ := q.FrontTo(5); p.ID != 1 {
		t.Errorf("FrontTo(5) = %v", p)
	}
	p, ok := q.PopFrontTo(7)
	if !ok || p.ID != 2 {
		t.Errorf("PopFrontTo(7) = %v", p)
	}
	p, ok = q.PopFrontTo(7)
	if !ok || p.ID != 4 {
		t.Errorf("second PopFrontTo(7) = %v", p)
	}
	if _, ok = q.PopFrontTo(7); ok {
		t.Error("third PopFrontTo(7) should fail")
	}
	// Global order must reflect the removals.
	p, _ = q.PopFront()
	if p.ID != 1 {
		t.Errorf("global front = %v, want 1", p)
	}
	p, _ = q.PopFront()
	if p.ID != 3 {
		t.Errorf("global front = %v, want 3", p)
	}
}

func TestCounts(t *testing.T) {
	q := New(10)
	dests := []int{0, 1, 1, 3, 3, 3, 7}
	for i, d := range dests {
		q.Push(pk(int64(i), d))
	}
	if q.Count(3) != 3 || q.Count(1) != 2 || q.Count(0) != 1 || q.Count(2) != 0 {
		t.Error("Count wrong")
	}
}

func TestRemoveByID(t *testing.T) {
	q := New(10)
	for i := int64(0); i < 5; i++ {
		q.Push(pk(i, 1))
	}
	if !q.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if q.Remove(2) {
		t.Fatal("double Remove(2) succeeded")
	}
	if q.Has(2) {
		t.Error("removed packet still present")
	}
	want := []int64{0, 1, 3, 4}
	got := q.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("queue = %v", got)
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Errorf("queue[%d] = %v, want ID %d", i, got[i], want[i])
		}
	}
	if q.Count(1) != 4 {
		t.Errorf("Count(1) = %d after removal", q.Count(1))
	}
}

func TestRemoveHeadAndTail(t *testing.T) {
	q := New(10)
	q.Push(pk(1, 0))
	q.Push(pk(2, 0))
	q.Push(pk(3, 0))
	q.Remove(1)
	q.Remove(3)
	p, ok := q.Front()
	if !ok || p.ID != 2 {
		t.Errorf("Front = %v after head/tail removal", p)
	}
	q.Remove(2)
	if q.Len() != 0 {
		t.Error("queue not empty")
	}
	q.Push(pk(4, 9))
	if p, _ := q.Front(); p.ID != 4 {
		t.Error("push after full drain broken")
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	mustPanic := func(name string, q *Queue, p mac.Packet) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: duplicate push of %d did not panic", name, p.ID)
			}
		}()
		q.Push(p)
	}
	q := New(10)
	q.Push(pk(1, 0))
	mustPanic("fresh index", q, pk(1, 5))

	// A duplicate after the ID index has doubled several times, pushed
	// out of order.
	q = New(10)
	for i := int64(0); i < 100; i++ {
		q.Push(pk(1000-7*i, int(i%10)))
	}
	if len(q.index) <= minIndex {
		t.Fatalf("index did not grow: %d slots", len(q.index))
	}
	mustPanic("grown index", q, pk(1000-7*42, 3))

	// A removed ID may come back.
	if !q.Remove(1000 - 7*42) {
		t.Fatal("Remove failed")
	}
	q.Push(pk(1000-7*42, 3))
	if !q.Has(1000-7*42) || q.Len() != 100 {
		t.Error("re-push after remove lost the packet")
	}
}

// refModel is a naive slice-backed reference implementation.
type refModel struct {
	pkts []mac.Packet
}

func (m *refModel) push(p mac.Packet) { m.pkts = append(m.pkts, p) }
func (m *refModel) popFront() (mac.Packet, bool) {
	if len(m.pkts) == 0 {
		return mac.Packet{}, false
	}
	p := m.pkts[0]
	m.pkts = m.pkts[1:]
	return p, true
}
func (m *refModel) popFrontTo(d int) (mac.Packet, bool) {
	for i, p := range m.pkts {
		if p.Dest == d {
			m.pkts = append(m.pkts[:i:i], m.pkts[i+1:]...)
			return p, true
		}
	}
	return mac.Packet{}, false
}
func (m *refModel) remove(id int64) bool {
	for i, p := range m.pkts {
		if p.ID == id {
			m.pkts = append(m.pkts[:i:i], m.pkts[i+1:]...)
			return true
		}
	}
	return false
}
func (m *refModel) count(d int) int {
	c := 0
	for _, p := range m.pkts {
		if p.Dest == d {
			c++
		}
	}
	return c
}
func (m *refModel) has(id int64) bool {
	for _, p := range m.pkts {
		if p.ID == id {
			return true
		}
	}
	return false
}

// TestAgainstReferenceModel drives random operation sequences against the
// naive model and checks every observable. Pushed IDs come out of order,
// as relays push them, from a shuffled pool that never repeats a live ID;
// each sequence is long enough to double the ID index several times, and
// removals and Has probes also ask for absent IDs.
func TestAgainstReferenceModel(t *testing.T) {
	const pool = 4096
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(10)
		ref := &refModel{}
		// ids[:next] have been pushed; an ID returns to the pool's unused
		// tail when it leaves the queue.
		ids := rng.Perm(pool)
		next := 0
		release := func(id int64) {
			for i := 0; i < next; i++ {
				if int64(ids[i]) == id {
					next--
					ids[i], ids[next] = ids[next], ids[i]
					return
				}
			}
		}
		for op := 0; op < 2500; op++ {
			switch rng.Intn(5) {
			case 0, 1: // push (biased so queues grow)
				if next == pool {
					break
				}
				p := pk(int64(ids[next]), rng.Intn(6))
				next++
				q.Push(p)
				ref.push(p)
			case 2:
				gp, gok := q.PopFront()
				wp, wok := ref.popFront()
				if gok != wok || gp != wp {
					return false
				}
				if gok {
					release(gp.ID)
				}
			case 3:
				d := rng.Intn(6)
				gp, gok := q.PopFrontTo(d)
				wp, wok := ref.popFrontTo(d)
				if gok != wok || gp != wp {
					return false
				}
				if gok {
					release(gp.ID)
				}
			case 4:
				id := int64(rng.Intn(pool + 8)) // absent IDs included
				removed := q.Remove(id)
				if removed != ref.remove(id) {
					return false
				}
				if removed {
					release(id)
				}
			}
			if q.Len() != len(ref.pkts) {
				return false
			}
			d := rng.Intn(7)
			if q.Count(d) != ref.count(d) {
				return false
			}
			id := int64(rng.Intn(pool + 8))
			if q.Has(id) != ref.has(id) {
				return false
			}
			for _, p := range ref.pkts {
				if !q.Has(p.ID) {
					return false
				}
			}
		}
		if len(q.index) < 8*minIndex { // the index doubled at least thrice
			return false
		}
		// Final: snapshot order matches.
		snap := q.AppendTo(nil)
		if len(snap) != len(ref.pkts) {
			return false
		}
		for i := range snap {
			if snap[i] != ref.pkts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDestIndexGrowth pushes destinations beyond the New hint and checks
// the per-destination index grows transparently.
func TestDestIndexGrowth(t *testing.T) {
	q := New(2)
	q.Push(pk(1, 0))
	q.Push(pk(2, 17))
	if q.Count(17) != 1 {
		t.Errorf("Count(17) = %d after growth", q.Count(17))
	}
	if p, ok := q.PopFrontTo(17); !ok || p.ID != 2 {
		t.Errorf("PopFrontTo(17) = %v, %v", p, ok)
	}
	if q.Count(17) != 0 || q.Len() != 1 {
		t.Error("growth bookkeeping wrong after pop")
	}
}

// TestFreeListReuse checks that a steady-state push/pop cycle recycles
// arena nodes instead of growing the arena.
func TestFreeListReuse(t *testing.T) {
	q := New(4)
	for i := int64(0); i < 8; i++ {
		q.Push(pk(i, int(i%4)))
	}
	arena := len(q.nodes)
	for i := int64(8); i < 5000; i++ {
		if _, ok := q.PopFront(); !ok {
			t.Fatal("pop failed")
		}
		q.Push(pk(i, int(i%4)))
	}
	if len(q.nodes) != arena {
		t.Errorf("arena grew from %d to %d under steady state", arena, len(q.nodes))
	}
	if q.Len() != 8 {
		t.Errorf("Len = %d", q.Len())
	}
}

// TestNegativeDestPanics documents the station-name keying contract.
func TestNegativeDestPanics(t *testing.T) {
	q := New(4)
	defer func() {
		if recover() == nil {
			t.Error("negative destination did not panic")
		}
	}()
	q.Push(pk(1, -1))
}

// TestQueueZeroAllocs pins the steady-state contract: once a queue has
// reached its depth, pushes and removals at that depth, with IDs out of
// order, touch neither the arena nor the ID index allocator.
func TestQueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs-per-run is meaningless under the race detector")
	}
	const depth = 300
	q := New(8)
	rng := rand.New(rand.NewSource(1))
	live := make([]int64, 0, depth)
	var next int64
	push := func() {
		// Interleave two ID streams, as a station holding both its own
		// injections and adopted relays does.
		id := next
		if next%2 == 1 {
			id = 1<<40 - next
		}
		next++
		q.Push(pk(id, int(id&7)))
		live = append(live, id)
	}
	for len(live) < depth {
		push()
	}
	step := func() {
		i := rng.Intn(len(live))
		if !q.Remove(live[i]) {
			t.Fatal("live packet missing")
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		push()
		if p, ok := q.PopFront(); ok {
			for j, id := range live {
				if id == p.ID {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
		push()
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("%.3f allocs per step at constant depth, want 0", a)
	}
	if q.Len() != depth {
		t.Errorf("Len = %d, want %d", q.Len(), depth)
	}
}
