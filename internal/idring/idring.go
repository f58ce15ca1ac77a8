// Package idring maps dense, sequentially assigned IDs to values
// without a Go map. The simulator numbers packets 0, 1, 2, … in
// injection order and retires them in roughly that order, so the IDs
// that can still be live always form a short window [Base, Next). A
// Ring keeps that window in a power-of-two slice indexed by id&(len-1).
//
// Push, Get and Take are O(1) and allocation-free in steady state. When
// the window would outgrow the slice, the dead prefix is reclaimed
// first and the slice doubles only if every slot is still in the
// window, so memory stays proportional to the window, not to the
// number of IDs ever assigned.
package idring

// minRing is the initial ring size.
const minRing = 16

// Ring maps the IDs of a dense sequence to values of type T. The zero
// value is an empty ring whose first Push is assigned ID 0.
type Ring[T any] struct {
	slots []slot[T]
	base  int64 // oldest ID that may still be live
	next  int64 // ID the next Push is assigned
	live  int   // pushed, untaken IDs
}

type slot[T any] struct {
	v    T
	live bool
}

// Push stores v under the next sequential ID and returns that ID.
//
//earmac:hotpath
func (r *Ring[T]) Push(v T) int64 {
	if r.next-r.base == int64(len(r.slots)) {
		r.compactOrGrow()
	}
	id := r.next
	r.slots[id&int64(len(r.slots)-1)] = slot[T]{v: v, live: true}
	r.next++
	r.live++
	return id
}

// Get returns the value stored under id, or nil when id is not live.
// The pointer is valid until the next Push.
//
//earmac:hotpath
func (r *Ring[T]) Get(id int64) *T {
	if id < r.base || id >= r.next {
		return nil
	}
	s := &r.slots[id&int64(len(r.slots)-1)]
	if !s.live {
		return nil
	}
	return &s.v
}

// Take removes id and returns its value, reporting whether id was live.
//
//earmac:hotpath
func (r *Ring[T]) Take(id int64) (T, bool) {
	var zero T
	if id < r.base || id >= r.next {
		return zero, false
	}
	s := &r.slots[id&int64(len(r.slots)-1)]
	if !s.live {
		return zero, false
	}
	v := s.v
	*s = slot[T]{}
	r.live--
	return v, true
}

// Live returns the number of live IDs.
func (r *Ring[T]) Live() int { return r.live }

// Base returns the oldest ID that may still be live: every ID below it
// has been taken.
func (r *Ring[T]) Base() int64 { return r.base }

// Next returns the ID the next Push is assigned.
func (r *Ring[T]) Next() int64 { return r.next }

// Cap returns the number of slots, the ring's memory in values.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// compactOrGrow reclaims the dead prefix of the window, doubling the
// ring (re-placing live values by ID) only when the live window spans
// every slot.
func (r *Ring[T]) compactOrGrow() {
	mask := int64(len(r.slots) - 1)
	for r.base < r.next && !r.slots[r.base&mask].live {
		r.base++
	}
	if r.next-r.base < int64(len(r.slots)) {
		return
	}
	size := max(2*len(r.slots), minRing)
	old := r.slots
	//earmac:alloc -- amortized ring doubling; steady state never reaches it
	r.slots = make([]slot[T], size)
	for id := r.base; id < r.next; id++ {
		r.slots[id&int64(size-1)] = old[id&mask]
	}
}
