package batonlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndBasics(t *testing.T) {
	l := New([]int{3, 1, 4})
	if l.Len() != 3 || l.Holder() != 3 || l.Pos() != 0 {
		t.Errorf("fresh list wrong: %v", l)
	}
	if l.At(1) != 1 || l.PosOf(4) != 2 || l.PosOf(9) != -1 {
		t.Error("At/PosOf wrong")
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []int{0, 1, 2}
	l := New(in)
	in[0] = 99
	if l.Holder() != 0 {
		t.Error("New aliased the input slice")
	}
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestAdvanceWraps(t *testing.T) {
	l := New([]int{0, 1, 2})
	got := []int{}
	for i := 0; i < 7; i++ {
		got = append(got, l.Holder())
		l.Advance()
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("holders = %v, want %v", got, want)
		}
	}
}

func TestMoveHolderToFront(t *testing.T) {
	l := New([]int{10, 11, 12, 13})
	l.Advance()
	l.Advance() // holder = 12 at position 2
	l.MoveHolderToFront()
	if l.Holder() != 12 || l.Pos() != 0 {
		t.Errorf("after move: %v", l)
	}
	want := []int{12, 10, 11, 13}
	for i, w := range want {
		if l.At(i) != w {
			t.Fatalf("order = %v, want %v", l.Members(), want)
		}
	}
	// Stations previously ahead (10, 11) shifted back by one; 13 unchanged.
	if l.PosOf(10) != 1 || l.PosOf(11) != 2 || l.PosOf(13) != 3 {
		t.Errorf("positions wrong: %v", l.Members())
	}
}

func TestMoveFrontHolderIsNoop(t *testing.T) {
	l := New([]int{5, 6, 7})
	before := l.Members()
	l.MoveHolderToFront()
	after := l.Members()
	for i := range before {
		if before[i] != after[i] {
			t.Error("moving front holder changed order")
		}
	}
	if l.Pos() != 0 {
		t.Error("pos changed")
	}
}

func TestEqual(t *testing.T) {
	a := New([]int{0, 1})
	b := New([]int{0, 1})
	if !a.Equal(b) {
		t.Error("identical lists unequal")
	}
	b.Advance()
	if a.Equal(b) {
		t.Error("different pos equal")
	}
	c := New([]int{1, 0})
	if a.Equal(c) {
		t.Error("different order equal")
	}
	d := New([]int{0, 1, 2})
	if a.Equal(d) {
		t.Error("different length equal")
	}
}

// Property: replicas applying the same random operation sequence stay
// equal, and the member multiset never changes.
func TestReplicaConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		members := make([]int, n)
		for i := range members {
			members[i] = i * 10
		}
		a, b := New(members), New(members)
		for op := 0; op < 100; op++ {
			if rng.Intn(2) == 0 {
				a.Advance()
				b.Advance()
			} else {
				a.MoveHolderToFront()
				b.MoveHolderToFront()
			}
			if !a.Equal(b) {
				return false
			}
			// Multiset preserved (all distinct here, so sort-free check).
			seen := map[int]bool{}
			for _, m := range a.Members() {
				seen[m] = true
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
