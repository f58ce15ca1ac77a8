// Package pktq provides the packet queue held by every station: a FIFO in
// injection-arrival order with per-destination indexing. The paper assumes
// a station "can scan its queue and access any packet in negligible time";
// this implementation makes the operations the algorithms actually use
// O(1) (push, pops, removal by ID, per-destination counts).
//
// The queue is built for the simulator's steady-state hot path: nodes live
// in an index-addressed arena recycled through a free list, and the
// per-destination index is a slice keyed by the destination station name
// (destinations are 0..n-1), so a push/pop cycle at constant queue depth
// performs no allocation.
package pktq

import (
	"fmt"

	"earmac/internal/mac"
)

// none marks the absence of a node link.
const none = int32(-1)

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
	byID   map[int64]int32
	byDest []destList // indexed by destination station
	nodes  []node     // arena; freed nodes are threaded through .next
	free   int32      // head of the free list
	head   int32
	tail   int32
	size   int
}

// New returns an empty queue for destinations in [0, nDests). Pushing a
// packet with a larger destination grows the index transparently, so
// nDests is a capacity hint, not a hard bound.
func New(nDests int) *Queue {
	if nDests < 0 {
		nDests = 0
	}
	return &Queue{
		byID:   make(map[int64]int32),
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

// dest returns the destination list for d, growing the index if needed.
func (q *Queue) dest(d int) *destList {
	if d >= len(q.byDest) {
		//earmac:alloc -- amortized index growth past the New(nDests) hint; sized callers never reach it
		grown := make([]destList, d+1)
		copy(grown, q.byDest)
		q.byDest = grown
	}
	return &q.byDest[d]
}

// Len returns the number of queued packets.
//
//earmac:hotpath
func (q *Queue) Len() int { return q.size }

// Has reports whether the packet with the given ID is queued.
//
//earmac:hotpath
func (q *Queue) Has(id int64) bool { _, ok := q.byID[id]; return ok }

// Get returns the queued packet with the given ID.
func (q *Queue) Get(id int64) (mac.Packet, bool) {
	n, ok := q.byID[id]
	if !ok {
		return mac.Packet{}, false
	}
	return q.nodes[n].pkt, true
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

// CountLess returns the number of queued packets whose destination is
// strictly smaller than dest (used by the Adjust-Window gossip stage).
func (q *Queue) CountLess(dest int) int {
	if dest > len(q.byDest) {
		dest = len(q.byDest)
	}
	total := 0
	for d := 0; d < dest; d++ {
		total += q.byDest[d].count
	}
	return total
}

// Push appends a packet. Pushing a duplicate ID panics: packet ownership
// is exactly-once by design and a duplicate indicates an algorithm bug.
// A negative destination panics, since the per-destination index is
// keyed by station name.
//
//earmac:hotpath
func (q *Queue) Push(p mac.Packet) {
	if _, dup := q.byID[p.ID]; dup {
		panic(fmt.Sprintf("pktq: duplicate packet %v", p))
	}
	if p.Dest < 0 {
		panic(fmt.Sprintf("pktq: negative destination on %v", p))
	}
	n := q.alloc(p)
	q.byID[p.ID] = n
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
	q.unlink(q.head)
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
	q.unlink(dl.head)
	return p, true
}

// PopPrefer removes and returns the oldest packet destined to dest if one
// exists, and otherwise the oldest packet overall. Used by coded transfer,
// where sending a packet addressed to the listener delivers it for free.
//
//earmac:hotpath
func (q *Queue) PopPrefer(dest int) (mac.Packet, bool) {
	if p, ok := q.PopFrontTo(dest); ok {
		return p, true
	}
	return q.PopFront()
}

// Remove deletes the packet with the given ID, reporting whether it was
// present.
//
//earmac:hotpath
func (q *Queue) Remove(id int64) bool {
	n, ok := q.byID[id]
	if !ok {
		return false
	}
	q.unlink(n)
	return true
}

func (q *Queue) unlink(n int32) {
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
	delete(q.byID, nd.pkt.ID)
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

// IDs returns the queued packet IDs in arrival order.
func (q *Queue) IDs() []int64 {
	out := make([]int64, 0, q.size)
	for n := q.head; n != none; n = q.nodes[n].next {
		out = append(out, q.nodes[n].pkt.ID)
	}
	return out
}

// Each calls f on every queued packet in arrival order; f returning false
// stops the iteration.
func (q *Queue) Each(f func(mac.Packet) bool) {
	for n := q.head; n != none; n = q.nodes[n].next {
		if !f(q.nodes[n].pkt) {
			return
		}
	}
}
