// Package batonlist implements the replicated move-to-front station list
// underlying both algorithm Orchestra (§3.1, the "baton list") and the
// Move-Big-To-Front broadcast substrate of [17]. Every station keeps its
// own copy; identical update sequences — guaranteed by shared channel
// feedback — keep the copies equal, which tests verify.
package batonlist

import "fmt"

// List is an ordered list of station names with a current holder position
// (the station holding the baton/token).
type List struct {
	order []int
	pos   int
}

// New builds a list over the given members in the given order, with the
// baton at the first member.
func New(members []int) *List {
	if len(members) == 0 {
		panic("batonlist: empty member list")
	}
	order := make([]int, len(members))
	copy(order, members)
	return &List{order: order}
}

// Len returns the number of members.
func (l *List) Len() int { return len(l.order) }

// Holder returns the station currently holding the baton.
func (l *List) Holder() int { return l.order[l.pos] }

// Pos returns the holder's position (0-based; the paper counts from 1).
func (l *List) Pos() int { return l.pos }

// At returns the station at the given position.
func (l *List) At(i int) int { return l.order[i] }

// PosOf returns the position of the given station, or -1.
func (l *List) PosOf(station int) int {
	for i, s := range l.order {
		if s == station {
			return i
		}
	}
	return -1
}

// Advance passes the baton to the next station in cyclic order.
func (l *List) Advance() { l.pos = (l.pos + 1) % len(l.order) }

// AdvanceBy passes the baton m positions forward in one step — the
// closed form of m Advance calls, used by the quiescence engine to
// fast-forward idle seasons.
func (l *List) AdvanceBy(m int64) {
	if m <= 0 {
		return
	}
	n := int64(len(l.order))
	l.pos = int((int64(l.pos) + m%n) % n)
}

// MoveHolderToFront moves the holder to the front of the list, keeping the
// baton with it. Stations that were ahead of it shift one position back
// (away from the front), exactly as in the paper: "each station at the
// original position j < i ... gets its position incremented to j + 1".
func (l *List) MoveHolderToFront() {
	h := l.order[l.pos]
	copy(l.order[1:l.pos+1], l.order[:l.pos])
	l.order[0] = h
	l.pos = 0
}

// Members returns a copy of the current order.
func (l *List) Members() []int {
	out := make([]int, len(l.order))
	copy(out, l.order)
	return out
}

// Equal reports whether two lists have identical order and position.
// Replica consistency checks use it.
func (l *List) Equal(o *List) bool {
	if l.pos != o.pos || len(l.order) != len(o.order) {
		return false
	}
	for i := range l.order {
		if l.order[i] != o.order[i] {
			return false
		}
	}
	return true
}

func (l *List) String() string {
	return fmt.Sprintf("baton@%d %v", l.pos, l.order)
}
