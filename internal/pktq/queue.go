// Package pktq provides the packet queue held by every station: a FIFO in
// injection-arrival order with per-destination indexing. The paper assumes
// a station "can scan its queue and access any packet in negligible time";
// this implementation makes the operations the algorithms actually use
// O(1) (push, pops, removal by ID, per-destination counts; the ID lookups
// in expectation).
//
// The queue is built for the simulator's steady-state hot path: nodes live
// in an index-addressed arena recycled through a free list, the
// per-destination index is a slice keyed by the destination station name
// (destinations are 0..n-1), and the ID index is an open-addressing table
// over the arena that doubles at a new depth record and never shrinks, so
// a push/pop cycle at constant queue depth performs no allocation.
package pktq

import (
	"fmt"
	"math/bits"

	"earmac/internal/mac"
)

// none marks the absence of a node link.
const none = int32(-1)

// fib is 2⁶⁴/φ: multiplying by it and keeping the top bits (Fibonacci
// hashing) spreads runs of sequential packet IDs across the ID index,
// where keeping the low bits would cluster them into long probe runs.
const fib = 0x9e3779b97f4a7c15

// minIndex is the ID index's size at a queue's first push.
const minIndex = 8

type node struct {
	pkt          mac.Packet
	prev, next   int32 // global arrival order
	dprev, dnext int32 // arrival order within the same destination
}

type destList struct {
	head, tail int32
	count      int
}

// Queue is a packet queue. The zero value is not usable; call New.
type Queue struct {
	// index maps packet IDs to arena nodes by linear probing: a slot
	// holds node+1 (0 is empty), and keys are compared through the
	// node's packet, so a slot is 4 bytes. Deletion shifts the probe run
	// back, leaving no tombstones. The table is at most half full; it is
	// nil until the first push.
	index  []int32
	shift  uint       // 64 − log₂ len(index): keeps the hash's top bits
	byDest []destList // indexed by destination station
	nodes  []node     // arena; freed nodes are threaded through .next
	free   int32      // head of the free list
	head   int32
	tail   int32
	size   int
}

// New returns an empty queue for destinations in [0, nDests). Pushing a
// packet with a larger destination grows the destination index
// transparently, so nDests is a capacity hint, not a hard bound.
func New(nDests int) *Queue {
	if nDests < 0 {
		nDests = 0
	}
	return &Queue{
		byDest: make([]destList, nDests),
		free:   none,
		head:   none,
		tail:   none,
	}
}

// alloc takes a node off the free list or extends the arena.
func (q *Queue) alloc(p mac.Packet) int32 {
	if q.free != none {
		i := q.free
		q.free = q.nodes[i].next
		q.nodes[i] = node{pkt: p, prev: none, next: none, dprev: none, dnext: none}
		return i
	}
	q.nodes = append(q.nodes, node{pkt: p, prev: none, next: none, dprev: none, dnext: none})
	return int32(len(q.nodes) - 1)
}

// dest returns the destination list for d, growing the destination index
// if needed.
func (q *Queue) dest(d int) *destList {
	if d >= len(q.byDest) {
		//earmac:alloc -- amortized index growth past the New(nDests) hint; sized callers never reach it
		grown := make([]destList, d+1)
		copy(grown, q.byDest)
		q.byDest = grown
	}
	return &q.byDest[d]
}

// home returns id's home slot in the ID index: the top bits of its
// Fibonacci hash.
func (q *Queue) home(id int64) int { return int((uint64(id) * fib) >> q.shift) }

// slot probes the ID index for id. It returns the slot holding id and
// true, or the empty slot that ends id's probe run and false. The index
// must be non-empty.
func (q *Queue) slot(id int64) (int, bool) {
	mask := len(q.index) - 1
	for i := q.home(id); ; i = (i + 1) & mask {
		e := q.index[i]
		if e == 0 {
			return i, false
		}
		if q.nodes[e-1].pkt.ID == id {
			return i, true
		}
	}
}

// grow doubles the ID index (or creates it) and reinserts every entry.
// The index grows only when the queue reaches a new depth record, so a
// queue at constant depth never calls it.
func (q *Queue) grow() {
	old := q.index
	size := max(2*len(old), minIndex)
	//earmac:alloc -- amortized doubling at a new depth record; a queue at constant depth never reaches it
	q.index = make([]int32, size)
	q.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != 0 {
			i, _ := q.slot(q.nodes[e-1].pkt.ID)
			q.index[i] = e
		}
	}
}

// unindex empties slot i, shifting the rest of its probe run back so
// every entry stays reachable from its home slot.
func (q *Queue) unindex(i int) {
	mask := len(q.index) - 1
	for j := (i + 1) & mask; q.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies cyclically
		// in [home, j).
		if home := q.home(q.nodes[q.index[j]-1].pkt.ID); (j-home)&mask >= (j-i)&mask {
			q.index[i] = q.index[j]
			i = j
		}
	}
	q.index[i] = 0
}

// Len returns the number of queued packets.
//
//earmac:hotpath
func (q *Queue) Len() int { return q.size }

// Has reports whether the packet with the given ID is queued.
//
//earmac:hotpath
func (q *Queue) Has(id int64) bool {
	if q.size == 0 {
		return false
	}
	_, ok := q.slot(id)
	return ok
}

// Count returns the number of queued packets with the given destination.
//
//earmac:hotpath
func (q *Queue) Count(dest int) int {
	if dest < 0 || dest >= len(q.byDest) {
		return 0
	}
	return q.byDest[dest].count
}

// Push appends a packet. Pushing a duplicate ID panics: packet ownership
// is exactly-once by design and a duplicate indicates an algorithm bug.
// A negative destination panics, since the per-destination index is
// keyed by station name.
//
//earmac:hotpath
func (q *Queue) Push(p mac.Packet) {
	if 2*(q.size+1) > len(q.index) {
		q.grow()
	}
	i, dup := q.slot(p.ID)
	if dup {
		panic(fmt.Sprintf("pktq: duplicate packet %v", p))
	}
	if p.Dest < 0 {
		panic(fmt.Sprintf("pktq: negative destination on %v", p))
	}
	n := q.alloc(p)
	q.index[i] = n + 1
	if q.tail == none {
		q.head, q.tail = n, n
	} else {
		q.nodes[n].prev = q.tail
		q.nodes[q.tail].next = n
		q.tail = n
	}
	dl := q.dest(p.Dest)
	if dl.count == 0 {
		dl.head, dl.tail = n, n
	} else {
		q.nodes[n].dprev = dl.tail
		q.nodes[dl.tail].dnext = n
		dl.tail = n
	}
	dl.count++
	q.size++
}

// Front returns the oldest queued packet without removing it.
//
//earmac:hotpath
func (q *Queue) Front() (mac.Packet, bool) {
	if q.head == none {
		return mac.Packet{}, false
	}
	return q.nodes[q.head].pkt, true
}

// FrontTo returns the oldest queued packet destined to dest without
// removing it.
//
//earmac:hotpath
func (q *Queue) FrontTo(dest int) (mac.Packet, bool) {
	if dest < 0 || dest >= len(q.byDest) {
		return mac.Packet{}, false
	}
	dl := &q.byDest[dest]
	if dl.count == 0 {
		return mac.Packet{}, false
	}
	return q.nodes[dl.head].pkt, true
}

// PopFront removes and returns the oldest queued packet.
//
//earmac:hotpath
func (q *Queue) PopFront() (mac.Packet, bool) {
	if q.head == none {
		return mac.Packet{}, false
	}
	p := q.nodes[q.head].pkt
	i, _ := q.slot(p.ID)
	q.unlink(i)
	return p, true
}

// PopFrontTo removes and returns the oldest packet destined to dest.
//
//earmac:hotpath
func (q *Queue) PopFrontTo(dest int) (mac.Packet, bool) {
	if dest < 0 || dest >= len(q.byDest) {
		return mac.Packet{}, false
	}
	dl := &q.byDest[dest]
	if dl.count == 0 {
		return mac.Packet{}, false
	}
	p := q.nodes[dl.head].pkt
	i, _ := q.slot(p.ID)
	q.unlink(i)
	return p, true
}

// Remove deletes the packet with the given ID, reporting whether it was
// present.
//
//earmac:hotpath
func (q *Queue) Remove(id int64) bool {
	if q.size == 0 {
		return false
	}
	i, ok := q.slot(id)
	if !ok {
		return false
	}
	q.unlink(i)
	return true
}

// unlink removes the packet in ID index slot i.
func (q *Queue) unlink(i int) {
	n := q.index[i] - 1
	nd := &q.nodes[n]
	if nd.prev != none {
		q.nodes[nd.prev].next = nd.next
	} else {
		q.head = nd.next
	}
	if nd.next != none {
		q.nodes[nd.next].prev = nd.prev
	} else {
		q.tail = nd.prev
	}
	dl := &q.byDest[nd.pkt.Dest]
	if nd.dprev != none {
		q.nodes[nd.dprev].dnext = nd.dnext
	} else {
		dl.head = nd.dnext
	}
	if nd.dnext != none {
		q.nodes[nd.dnext].dprev = nd.dprev
	} else {
		dl.tail = nd.dprev
	}
	dl.count--
	q.unindex(i)
	q.size--
	// Recycle the node: clear the packet so the arena does not retain it,
	// then thread it onto the free list through .next.
	*nd = node{next: q.free, prev: none, dprev: none, dnext: none}
	q.free = n
}

// AppendTo appends the queued packets in arrival order to buf and returns
// the extended slice, so callers can reuse one buffer.
//
//earmac:hotpath
func (q *Queue) AppendTo(buf []mac.Packet) []mac.Packet {
	for n := q.head; n != none; n = q.nodes[n].next {
		buf = append(buf, q.nodes[n].pkt)
	}
	return buf
}
