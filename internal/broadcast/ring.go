// Package broadcast implements the three prior-work broadcast protocols
// the paper composes its routing algorithms from: Round-Robin-Withholding
// (RRW, [18]), Old-First Round-Robin-Withholding (OF-RRW, [3]), and
// Move-Big-To-Front (MBTF, [17]). One form serves every use: a Replica
// is one station's copy of a protocol over a member list, with the
// station's queue for it.
//
// The energy-capped algorithms run the protocols in member sets that
// take turns on duty — k-Cycle OF-RRW in groups, k-Clique OF-RRW in
// pairs, k-Subsets MBTF (or RRW) in threads — and a Roster is that
// rotation: which set is on duty in which round. It is the system's
// schedule and idle profile, and each station's Seat in it holds one
// replica per set the station joins and finds the one on duty in a
// round. The standalone core.Systems here make each replica a station,
// all n of them always on (energy cap n, a roster of one set): the
// setting of the original papers, used as baselines and to validate
// the quoted bounds.
package broadcast

// ring is the replicated token state all three protocols share over a
// fixed member list. Every member keeps its own replica and applies the
// same transitions, driven by shared channel feedback: a pass moves the
// token to the next member, and the token's return to the first member
// ends a phase (OF-RRW's old/new boundary).
type ring struct {
	members []int
	pos     int
	phase   int64 // completed token cycles
}

// newRing builds a ring over members in token order. The ring shares
// members, which must not change.
func newRing(members []int) ring {
	if len(members) == 0 {
		panic("broadcast: empty ring")
	}
	return ring{members: members}
}

// holder returns the station currently holding the token.
func (r *ring) holder() int { return r.members[r.pos] }

// pass moves the token to the next member.
func (r *ring) pass() {
	if r.pos++; r.pos == len(r.members) {
		r.pos = 0
		r.phase++
	}
}

// skip applies m ≥ 0 passes in closed form.
func (r *ring) skip(m int64) {
	n := int64(len(r.members))
	t := int64(r.pos) + m%n
	r.pos = int(t % n)
	r.phase += m/n + t/n
}

// phaseTail is OF-RRW's old/new distinction for one FIFO queue fed by
// one ring: a packet is new while the ring is still in the phase the
// packet was pushed in. Ring phases never decrease, so the packets
// pushed in the latest push's phase form a suffix of the queue, and it
// suffices to remember that phase and how many pushes it saw. This
// holds when the queue is read only at its front and loses only old
// fronts, as in OF-RRW. Removals then need no bookkeeping: while last
// is the current phase none of its packets can leave, and once the
// phase moves on, n is not read again before the next push resets it.
type phaseTail struct {
	last int64 // ring phase of the latest push
	n    int   // pushes in phase last
}

// pushed records a push at the tail during the given ring phase.
func (t *phaseTail) pushed(phase int64) {
	if phase != t.last {
		t.last, t.n = phase, 0
	}
	t.n++
}

// frontIsNew reports whether the front of a queue of qlen packets was
// pushed in the current ring phase — and hence, phases being monotone,
// whether the whole queue is new and must be withheld.
func (t *phaseTail) frontIsNew(phase int64, qlen int) bool {
	return t.last == phase && t.n >= qlen
}
