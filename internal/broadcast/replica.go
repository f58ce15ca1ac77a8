package broadcast

import (
	"slices"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
)

// Kind names the protocol a Replica runs.
type Kind uint8

const (
	// RRW is Round-Robin-Withholding [18]: the token holder transmits
	// its packets, one per round, until it is empty; a silent round
	// passes the token. Stable for every injection rate ρ < 1.
	RRW Kind = iota
	// OFRRW is Old-First RRW [3]: RRW in which the holder withholds the
	// packets that arrived during the current token cycle (phase), so
	// a phase serves only the packets that were waiting when it began.
	OFRRW
	// MBTF is Move-Big-To-Front [17], the substrate with throughput 1.
	// The holder attaches a "big" control bit (queue ≥ member count) to
	// each packet; a big holder keeps the token and streams, a packet
	// with the bit clear or a silent round passes it. Silent rounds thus
	// occur only at empty stations, and whenever the total queue exceeds
	// m(m−1) some member is big (pigeonhole), so rate 1 is sustainable.
	//
	// [17] describes a station list with big stations moved to the
	// front. Since only the holder transmits, bigness is only ever
	// announced from the front, so moving the announcer there is the
	// holder keeping the token while big, and the cyclic order is the
	// list's rotation. This is that equivalent form; replica
	// consistency needs exactly the one control bit.
	MBTF
)

// Replica is one station's copy of an RRW, OF-RRW or MBTF protocol over
// a fixed member list, together with the station's queue for it. The
// members' replicas of one instance apply the same token transitions
// from the shared feedback of the rounds the instance is on duty: the
// holder sends its front packet (an old one, under OF-RRW), a heard
// packet leaves the sender's queue, and a silence passes the token.
type Replica struct {
	self      int // the station's place in the token order
	kind      Kind
	ring      ring
	tail      phaseTail // OF-RRW: the queue's suffix pushed in the latest phase
	q         *pktq.Queue
	ctrl      mac.Control // MBTF: reused big-bit buffer; receivers never retain it
	pendingTx int64       // ID of the packet sent and not yet heard, or -1
}

// NewReplica builds station id's replica of the given protocol over
// members in token order, with a queue for destinations in [0, n). The
// replica shares members, which must not change and must include id.
func NewReplica(kind Kind, id int, members []int, n int) Replica {
	r := Replica{kind: kind, ring: newRing(members), q: pktq.New(n), pendingTx: -1}
	if r.self = slices.Index(members, id); r.self < 0 {
		panic("broadcast: replica of a non-member")
	}
	if kind == MBTF {
		r.ctrl = mac.MakeControl(1)
	}
	return r
}

// Inject queues a packet for this protocol instance.
//
//earmac:hotpath
func (r *Replica) Inject(p mac.Packet) {
	r.q.Push(p)
	r.tail.pushed(r.ring.phase)
}

// Act is the replica's action in a round its instance is on duty. It
// stays small enough to inline into a station's own Act, so the k−1
// members that only listen pay no call; send is the holder's part.
//
//earmac:hotpath
func (r *Replica) Act(round int64) core.Action {
	if r.ring.pos != r.self {
		return core.Listen()
	}
	return r.send()
}

// send is the holder's action: its front packet, or a silence.
func (r *Replica) send() core.Action {
	r.pendingTx = -1
	front, ok := r.q.Front()
	if !ok || r.kind == OFRRW && r.tail.frontIsNew(r.ring.phase, r.q.Len()) {
		// Empty, or (front new, hence all new) withholding: a silence.
		return core.Listen()
	}
	r.pendingTx = front.ID
	msg := mac.PacketMsg(front)
	if r.kind == MBTF {
		r.ctrl.SetBit(0, r.q.Len() >= len(r.ring.members))
		msg.Ctrl = r.ctrl
	}
	return core.Transmit(msg)
}

// Observe applies the feedback of an on-duty round. Collisions cannot
// occur: only the unique token holder transmits. A disrupted round
// (heard as a collision) leaves the token, and the sender's packet,
// where they are.
//
//earmac:hotpath
func (r *Replica) Observe(round int64, fb mac.Feedback) {
	switch fb.Kind {
	case mac.FbHeard:
		if r.pendingTx >= 0 {
			r.q.Remove(r.pendingTx)
			r.pendingTx = -1
		}
		if r.kind == MBTF && !fb.Msg.Ctrl.Bit(0) {
			r.ring.pass()
		}
	case mac.FbSilence:
		r.ring.pass()
	}
}

// QueueLen returns the number of packets queued for this instance.
func (r *Replica) QueueLen() int { return r.q.Len() }

// AppendHeld appends the queued packets to dst (core.PacketHolder).
func (r *Replica) AppendHeld(dst []mac.Packet) []mac.Packet { return r.q.AppendTo(dst) }

// Idle reports whether the replica's queue is empty, so that each of its
// on-duty rounds is silent until a packet arrives. A sent packet stays
// queued until it is heard, so an idle replica has nothing pending.
func (r *Replica) Idle() bool { return r.q.Len() == 0 }

// SkipIdle applies, in closed form, one silence for each of the
// replica's on-duty rounds in [from, to): the rounds r with
// (r/every) mod period = slot. It is exact over a stretch in which every
// member's replica is idle.
func (r *Replica) SkipIdle(from, to, every, period, slot int64) {
	r.ring.skip(onDuty(to, every, period, slot) - onDuty(from, every, period, slot))
}

// onDuty counts the rounds r in [0, x) with (r/every) mod period = slot.
func onDuty(x, every, period, slot int64) int64 {
	cycle := every * period
	return x/cycle*every + min(max(x%cycle-slot*every, 0), every)
}

// Token returns the token state the members' replicas agree on after
// every round: the holder and the number of completed token cycles.
func (r *Replica) Token() (holder int, phase int64) { return r.ring.holder(), r.ring.phase }
