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
	if q.Count(0) != 0 || q.CountLess(5) != 0 {
		t.Error("counts on empty queue nonzero")
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
	if q.CountLess(3) != 3 { // dests 0,1,1
		t.Errorf("CountLess(3) = %d, want 3", q.CountLess(3))
	}
	if q.CountLess(0) != 0 {
		t.Errorf("CountLess(0) = %d", q.CountLess(0))
	}
	if q.CountLess(100) != 7 {
		t.Errorf("CountLess(100) = %d", q.CountLess(100))
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
	got := q.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %d, want %d", i, got[i], want[i])
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

func TestPopPrefer(t *testing.T) {
	q := New(10)
	q.Push(pk(1, 3))
	q.Push(pk(2, 8))
	p, ok := q.PopPrefer(8)
	if !ok || p.ID != 2 {
		t.Errorf("PopPrefer(8) = %v", p)
	}
	p, ok = q.PopPrefer(8) // no dest-8 packet left: falls back to oldest
	if !ok || p.ID != 1 {
		t.Errorf("PopPrefer(8) fallback = %v", p)
	}
	if _, ok = q.PopPrefer(8); ok {
		t.Error("PopPrefer on empty queue succeeded")
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	q := New(10)
	q.Push(pk(1, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate push did not panic")
		}
	}()
	q.Push(pk(1, 5))
}

func TestGetAndEach(t *testing.T) {
	q := New(10)
	q.Push(pk(10, 2))
	q.Push(pk(11, 4))
	p, ok := q.Get(11)
	if !ok || p.Dest != 4 {
		t.Errorf("Get(11) = %v, %v", p, ok)
	}
	if _, ok := q.Get(99); ok {
		t.Error("Get(99) succeeded")
	}
	var seen []int64
	q.Each(func(p mac.Packet) bool {
		seen = append(seen, p.ID)
		return true
	})
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 11 {
		t.Errorf("Each order = %v", seen)
	}
	seen = nil
	q.Each(func(p mac.Packet) bool {
		seen = append(seen, p.ID)
		return false
	})
	if len(seen) != 1 {
		t.Errorf("Each early stop visited %v", seen)
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
func (m *refModel) countLess(d int) int {
	c := 0
	for _, p := range m.pkts {
		if p.Dest < d {
			c++
		}
	}
	return c
}

// TestAgainstReferenceModel drives random operation sequences against the
// naive model and checks every observable.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(10)
		ref := &refModel{}
		nextID := int64(0)
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1: // push (biased so queues grow)
				p := pk(nextID, rng.Intn(6))
				nextID++
				q.Push(p)
				ref.push(p)
			case 2:
				gp, gok := q.PopFront()
				wp, wok := ref.popFront()
				if gok != wok || gp != wp {
					return false
				}
			case 3:
				d := rng.Intn(6)
				gp, gok := q.PopFrontTo(d)
				wp, wok := ref.popFrontTo(d)
				if gok != wok || gp != wp {
					return false
				}
			case 4:
				id := int64(rng.Intn(int(nextID + 1)))
				if q.Remove(id) != ref.remove(id) {
					return false
				}
			}
			if q.Len() != len(ref.pkts) {
				return false
			}
			d := rng.Intn(7)
			if q.Count(d) != ref.count(d) || q.CountLess(d) != ref.countLess(d) {
				return false
			}
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
