// Package broadcast implements the three prior-work broadcast protocols
// the paper composes its routing algorithms from: Round-Robin-Withholding
// (RRW, [18]), Old-First Round-Robin-Withholding (OF-RRW, [3]), and
// Move-Big-To-Front (MBTF, [17]). Each is available in two forms:
//
//   - as a replicated token state machine (Ring, MBTF) that the energy-
//     capped algorithms embed — k-Cycle runs OF-RRW inside each group,
//     k-Clique inside each pair, and k-Subsets runs MBTF inside each
//     thread;
//   - as a complete standalone core.System with all n stations switched
//     on (energy cap n), the setting of the original papers, used as
//     baselines and to validate the quoted bounds.
package broadcast

// Ring is the replicated token state of RRW/OF-RRW over a fixed member
// set. Every member keeps its own Ring replica and applies the same
// transitions, driven by shared channel feedback: a heard message keeps
// the token in place (the holder keeps transmitting), a silent round
// advances the token to the next member, and a full cycle of the token
// ends a phase (relevant to OF-RRW's old/new distinction).
type Ring struct {
	members []int
	pos     int
	phase   int64
	turns   int // completed turns in the current phase
}

// NewRing builds a ring over members in token order.
func NewRing(members []int) *Ring {
	if len(members) == 0 {
		panic("broadcast: empty ring")
	}
	m := make([]int, len(members))
	copy(m, members)
	return &Ring{members: m}
}

// Holder returns the station currently holding the token.
func (r *Ring) Holder() int { return r.members[r.pos] }

// Phase returns the number of completed token cycles.
func (r *Ring) Phase() int64 { return r.phase }

// Members returns the ring size.
func (r *Ring) Len() int { return len(r.members) }

// ObserveSilence advances the token (the holder had nothing to send) and
// reports whether this completed a phase.
func (r *Ring) ObserveSilence() (phaseDone bool) {
	r.pos = (r.pos + 1) % len(r.members)
	r.turns++
	if r.turns == len(r.members) {
		r.turns = 0
		r.phase++
		return true
	}
	return false
}

// ObserveHeard records a successful transmission: the token stays with the
// holder.
func (r *Ring) ObserveHeard() {}

// SkipSilences applies m consecutive ObserveSilence transitions in
// closed form — the quiescence engine's batch observation for idle
// stretches where every holder is provably empty.
func (r *Ring) SkipSilences(m int64) {
	if m <= 0 {
		return
	}
	n := int64(len(r.members))
	t := int64(r.turns) + m
	r.pos = int((int64(r.pos) + m%n) % n)
	r.phase += t / n
	r.turns = int(t % n)
}

// PhaseTail is OF-RRW's old/new distinction for one FIFO queue fed by
// one Ring: a packet is new while the ring is still in the phase the
// packet was pushed in. Ring phases never decrease, so the packets
// pushed in the latest push's phase form a suffix of the queue, and it
// suffices to remember that phase and how many pushes it saw. This
// holds when the queue is read only at its front and loses only old
// fronts, as in every OF-RRW user here. Removals then need no
// bookkeeping: while last is the current phase none of its packets can
// leave, and once the phase moves on, n is not read again before the
// next push resets it.
type PhaseTail struct {
	last int64 // ring phase of the latest push
	n    int   // pushes in phase last
}

// Pushed records a push at the tail during the given ring phase.
func (t *PhaseTail) Pushed(phase int64) {
	if phase != t.last {
		t.last, t.n = phase, 0
	}
	t.n++
}

// FrontIsNew reports whether the front of a queue of qlen packets was
// pushed in the current ring phase — and hence, phases being monotone,
// whether the whole queue is new and must be withheld.
func (t *PhaseTail) FrontIsNew(phase int64, qlen int) bool {
	return t.last == phase && t.n >= qlen
}

// Equal reports replica equality.
func (r *Ring) Equal(o *Ring) bool {
	if r.pos != o.pos || r.phase != o.phase || r.turns != o.turns || len(r.members) != len(o.members) {
		return false
	}
	for i := range r.members {
		if r.members[i] != o.members[i] {
			return false
		}
	}
	return true
}
