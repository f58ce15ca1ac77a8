// Package adjwin implements algorithm Adjust-Window (paper §4.2): a
// plain-packet, indirect-routing algorithm with energy cap 2 that is
// universal — latency O((n³log²n + β)/(1−ρ)) for every rate ρ < 1 —
// without ever transmitting a control bit.
//
// Time is split into windows of size L; if a window fails to deliver all
// of its old packets (those queued at the window's start), L doubles. A
// window has three stages:
//
//   - Gossip: n² phases of 2+3·lgL rounds, one per ordered pair (i, j),
//     during which a large station i (≥ 4n·lgL old packets) reports to j,
//     purely by the pattern of packet transmissions ("coded transfer":
//     packet = 1, silence = 0): that it is large, whether its queue
//     exceeds L, min(size, L), its count of packets destined to j, and
//     its count destined to stations before j. Packets spent this way
//     prefer destination j (delivered on the spot); others are adopted by
//     j, which relays them during the Auxiliary stage.
//   - Main: from the gossiped snapshot every station derives the same
//     global schedule — sender blocks in name order, ordered by
//     destination inside a block — and each station knows both its
//     transmit slots and its listen slices. If some station reported a
//     queue above L, the stage is instead dedicated to the smallest such
//     station (see DESIGN.md §4 for the schedule realization).
//   - Auxiliary: 8n·lgL phases of n² pair-rounds (i, j) in which i sends
//     one pending packet destined to j — small stations' old packets and
//     the relays adopted during Gossip — and j consumes it.
//
// lg x denotes ⌈log₂(x+1)⌉ throughout, as in the paper.
//
// A station's old packets are those of its snapshot still queued, and
// they are exactly its queued packets with ID ≤ oldMax, the ID of the
// newest snapshot packet. The own queue is pushed only from the
// injection staging, in injection order, and the simulator numbers
// packets in injection order, so IDs rise along the queue (drainStaging
// asserts it): every packet pushed after the snapshot has a larger ID
// than every snapshot packet.
package adjwin

import (
	"fmt"
	"math/bits"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
)

// lg is the paper's ⌈log₂(x+1)⌉.
func lg(x int64) int {
	if x < 0 {
		panic("adjwin: lg of negative")
	}
	return bits.Len64(uint64(x))
}

// windowShape holds the stage lengths of a window of size L.
type windowShape struct {
	L        int64
	lgL      int
	phaseLen int64 // gossip phase length 2+3·lgL
	LG       int64 // gossip stage: n²·phaseLen
	LA       int64 // auxiliary stage: 8n³·lgL
	LM       int64 // main stage: L − LG − LA
	smallCut int   // stations with fewer old packets are small: 4n·lgL
	auxPh    int64 // auxiliary phases: 8n·lgL
}

func shape(n int, L int64) windowShape {
	l := lg(L)
	s := windowShape{
		L:        L,
		lgL:      l,
		phaseLen: int64(2 + 3*l),
		smallCut: 4 * n * l,
		auxPh:    int64(8 * n * l),
	}
	s.LG = int64(n*n) * s.phaseLen
	s.LA = s.auxPh * int64(n*n)
	s.LM = L - s.LG - s.LA
	return s
}

// InitialWindow returns the starting window size: the smallest power of
// two whose Main stage keeps at least half the window, L − LG − LA ≥ L/2.
func InitialWindow(n int) int64 {
	for L := int64(2); ; L *= 2 {
		if s := shape(n, L); s.LM >= L/2 {
			return L
		}
	}
}

type slice struct{ start, end int64 }

type station struct {
	id, n int

	sh       windowShape
	winStart int64
	nextL    int64

	q       *pktq.Queue  // own packets (old snapshot members + new), IDs rising
	relayQ  *pktq.Queue  // packets adopted during this window's gossip
	staging []mac.Packet // injected this round, queued on next Act
	lastID  int64        // ID of the packet last pushed onto q

	// Snapshot at window start (the "old" packets: those in q with ID ≤
	// oldMax; see the package doc).
	oldMax       int64
	oldRemaining int
	snapshot     []mac.Packet
	snapSize     int64
	snapCnt      []int64
	snapCntLess  []int64
	small        bool

	// Gossip knowledge about every station (as listener).
	large     []bool
	gtL       []bool
	sizes     []int64 // min(size, L); 0 for small stations
	cntToMe   []int64
	cntLessMe []int64

	// Main-stage plan, computed once per window after gossip.
	mainReady  bool
	dedicated  bool
	dedX       int
	schedLen   int64
	blockStart int64
	mainList   []mac.Packet
	slices     []slice
	slicePtr   int

	pendingTx    int64
	pendingRelay bool
	started      bool
}

// New builds an Adjust-Window system for n ≥ 2 stations with the paper's
// initial window size.
func New(n int) (*core.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("adjwin: need n >= 2, got %d", n)
	}
	return NewWithWindow(n, InitialWindow(n))
}

// NewWithWindow builds the system with a custom initial window size —
// smaller than the paper's choice, the doubling mechanism must grow it;
// larger, the first windows waste capacity. Used by the doubling
// ablation. The window must leave the Main stage at least one round.
func NewWithWindow(n int, L int64) (*core.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("adjwin: need n >= 2, got %d", n)
	}
	if shape(n, L).LM <= 0 {
		return nil, fmt.Errorf("adjwin: window %d leaves no Main stage for n=%d", L, n)
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		s := &station{
			id: i, n: n,
			q:         pktq.New(n),
			relayQ:    pktq.New(n),
			lastID:    -1,
			pendingTx: -1,
			nextL:     L,
			winStart:  0,
		}
		stations[i] = s
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:        "adjust-window",
			EnergyCap:   2,
			PlainPacket: true,
		},
		Stations: stations,
	}, nil
}

func (s *station) Inject(p mac.Packet) { s.staging = append(s.staging, p) }

func (s *station) beginWindow(round int64) {
	if s.started {
		// End-of-window invariants: all adopted relays were forwarded, and
		// when the window was not doubled, every old packet was delivered.
		if s.relayQ.Len() != 0 {
			panic(fmt.Sprintf("adjwin: station %d ends a window with %d undelivered relays", s.id, s.relayQ.Len()))
		}
		if s.nextL == s.sh.L && s.oldRemaining != 0 {
			panic(fmt.Sprintf("adjwin: station %d ends an undoubled window with %d old packets", s.id, s.oldRemaining))
		}
		s.winStart += s.sh.L
	}
	s.started = true
	s.sh = shape(s.n, s.nextL)
	if s.sh.LM <= 0 {
		panic("adjwin: window too small for its stages")
	}

	// Snapshot: everything queued now is old for this window.
	s.snapshot = s.q.AppendTo(s.snapshot[:0])
	s.snapSize = int64(len(s.snapshot))
	s.oldMax = -1
	if len(s.snapshot) > 0 {
		s.oldMax = s.snapshot[len(s.snapshot)-1].ID
	}
	s.snapCnt = make([]int64, s.n)
	s.snapCntLess = make([]int64, s.n)
	for _, p := range s.snapshot {
		s.snapCnt[p.Dest]++
	}
	var acc int64
	for d := 0; d < s.n; d++ {
		s.snapCntLess[d] = acc
		acc += s.snapCnt[d]
	}
	s.oldRemaining = len(s.snapshot)
	s.small = s.snapSize < int64(s.sh.smallCut)

	// Reset per-window gossip knowledge; record my own stats directly.
	s.large = make([]bool, s.n)
	s.gtL = make([]bool, s.n)
	s.sizes = make([]int64, s.n)
	s.cntToMe = make([]int64, s.n)
	s.cntLessMe = make([]int64, s.n)
	if !s.small {
		s.large[s.id] = true
		s.gtL[s.id] = s.snapSize > s.sh.L
		s.sizes[s.id] = min(s.snapSize, s.sh.L)
		s.cntToMe[s.id] = min(s.snapCnt[s.id], s.sh.L)
		s.cntLessMe[s.id] = min(s.snapCntLess[s.id], s.sh.L)
	}
	s.mainReady = false
	s.slicePtr = 0
}

// drainStaging queues this round's injections, in injection order. The
// old-packet test p.ID ≤ oldMax relies on IDs rising along q, so an
// injection out of ID order is a fatal error.
func (s *station) drainStaging() {
	for _, p := range s.staging {
		if p.ID <= s.lastID {
			panic(fmt.Sprintf("adjwin: station %d queues packet %d after packet %d", s.id, p.ID, s.lastID))
		}
		s.lastID = p.ID
		s.q.Push(p)
	}
	s.staging = s.staging[:0]
}

// old reports whether a packet of q belongs to the window's snapshot.
func (s *station) old(p mac.Packet) bool { return p.ID <= s.oldMax }

func (s *station) Act(round int64) core.Action {
	if !s.started || round == s.winStart+s.sh.L {
		s.beginWindow(round)
	}
	s.drainStaging()
	s.pendingTx = -1
	s.pendingRelay = false

	off := round - s.winStart
	switch {
	case off < s.sh.LG:
		return s.actGossip(off)
	case off < s.sh.LG+s.sh.LM:
		return s.actMain(off - s.sh.LG)
	default:
		return s.actAux(off - s.sh.LG - s.sh.LM)
	}
}

// popOld readies the oldest snapshot packet for transmission, preferring
// destination j (which delivers it immediately). Large stations always
// have one: the gossip spend is bounded by (n−1)(2+3·lgL) < 4n·lgL.
func (s *station) popOld(j int) mac.Packet {
	if p, ok := s.q.FrontTo(j); ok && s.old(p) {
		return p
	}
	p, ok := s.q.Front()
	if !ok || !s.old(p) {
		panic(fmt.Sprintf("adjwin: station %d ran out of old packets during coded transfer", s.id))
	}
	return p
}

func (s *station) actGossip(off int64) core.Action {
	pIdx := off / s.sh.phaseLen
	r := off % s.sh.phaseLen
	i, j := int(pIdx)/s.n, int(pIdx)%s.n
	if i == j {
		return core.Off()
	}
	if s.id == j {
		return core.Listen()
	}
	if s.id != i || s.small {
		return core.Off()
	}
	// Large station i reporting to j.
	var send bool
	switch {
	case r == 0:
		send = true // "I am large"
	case r == 1:
		send = s.snapSize > s.sh.L
	default:
		field := (r - 2) / int64(s.sh.lgL)
		bit := int((r - 2) % int64(s.sh.lgL))
		var v int64
		switch field {
		case 0:
			v = min(s.snapSize, s.sh.L)
		case 1:
			v = min(s.snapCnt[j], s.sh.L)
		default:
			v = min(s.snapCntLess[j], s.sh.L)
		}
		send = v>>(uint(s.sh.lgL-1-bit))&1 == 1
	}
	if !send {
		return core.Off()
	}
	p := s.popOld(j)
	s.pendingTx = p.ID
	return core.Transmit(mac.PacketMsg(p))
}

// prepareMain derives the window's Main-stage plan from the gossip data;
// every station computes the identical plan.
func (s *station) prepareMain() {
	s.mainReady = true
	s.dedicated = false
	for i := 0; i < s.n; i++ {
		if s.gtL[i] {
			s.dedicated = true
			s.dedX = i
			break
		}
	}
	var m int64
	starts := make([]int64, s.n)
	for i := 0; i < s.n; i++ {
		starts[i] = m
		m += s.sizes[i]
	}
	if s.dedicated {
		s.nextL = 2 * s.sh.L
		s.schedLen = s.sh.LM
	} else {
		s.nextL = s.sh.L
		if m > s.sh.LM {
			s.nextL = 2 * s.sh.L
		}
		s.schedLen = min(s.sh.LM, m)
	}

	// Sender plan: the full snapshot sorted by (dest, arrival); gossip-
	// spent packets leave holes (silent slots). A counting sort: dest d's
	// packets start at snapCntLess[d], in snapshot (arrival) order.
	s.mainList = nil
	s.blockStart = -1
	sender := (!s.dedicated && s.large[s.id]) || (s.dedicated && s.id == s.dedX)
	if sender {
		s.mainList = make([]mac.Packet, len(s.snapshot))
		next := make([]int64, s.n)
		copy(next, s.snapCntLess)
		for _, p := range s.snapshot {
			s.mainList[next[p.Dest]] = p
			next[p.Dest]++
		}
		if s.dedicated {
			s.blockStart = 0
		} else {
			s.blockStart = starts[s.id]
		}
	}

	// Listener plan: my slices of the schedule, in increasing start order.
	s.slices = s.slices[:0]
	s.slicePtr = 0
	add := func(start, cnt int64) {
		if cnt <= 0 {
			return
		}
		end := min(start+cnt, s.schedLen)
		if start < end {
			s.slices = append(s.slices, slice{start, end})
		}
	}
	if s.dedicated {
		add(s.cntLessMe[s.dedX], s.cntToMe[s.dedX])
	} else {
		for i := 0; i < s.n; i++ {
			if s.large[i] {
				add(starts[i]+s.cntLessMe[i], s.cntToMe[i])
			}
		}
	}
}

func (s *station) actMain(o int64) core.Action {
	if !s.mainReady {
		s.prepareMain()
	}
	// Sender role.
	if s.blockStart >= 0 {
		slot := o - s.blockStart
		if slot >= 0 && slot < int64(len(s.mainList)) && o < s.schedLen {
			p := s.mainList[slot]
			if s.q.Has(p.ID) {
				s.pendingTx = p.ID
				return core.Transmit(mac.PacketMsg(p))
			}
			return core.Off() // hole: spent during gossip
		}
	}
	// Receiver role.
	for s.slicePtr < len(s.slices) && s.slices[s.slicePtr].end <= o {
		s.slicePtr++
	}
	if s.slicePtr < len(s.slices) && s.slices[s.slicePtr].start <= o {
		return core.Listen()
	}
	return core.Off()
}

func (s *station) actAux(o int64) core.Action {
	pr := o % int64(s.n*s.n)
	i, j := int(pr)/s.n, int(pr)%s.n
	if s.id == i {
		// Send one pending packet destined to j: an old packet if I am
		// small, or an adopted relay.
		if s.small {
			if p, ok := s.q.FrontTo(j); ok && s.old(p) {
				s.pendingTx = p.ID
				return core.Transmit(mac.PacketMsg(p))
			}
		}
		if p, ok := s.relayQ.FrontTo(j); ok {
			s.pendingTx = p.ID
			s.pendingRelay = true
			return core.Transmit(mac.PacketMsg(p))
		}
		if s.id == j {
			return core.Listen() // on as receiver even with nothing to send
		}
		return core.Off()
	}
	if s.id == j {
		return core.Listen()
	}
	return core.Off()
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	off := round - s.winStart
	switch {
	case off < s.sh.LG:
		s.observeGossip(off, fb)
	case off < s.sh.LG+s.sh.LM:
		s.observeDelivery(fb)
	default:
		s.observeDelivery(fb)
	}
}

// observeGossip handles both the transmitter's bookkeeping and the
// listener's bit accumulation and relay adoption.
func (s *station) observeGossip(off int64, fb mac.Feedback) {
	pIdx := off / s.sh.phaseLen
	r := off % s.sh.phaseLen
	i, j := int(pIdx)/s.n, int(pIdx)%s.n

	if s.pendingTx >= 0 && fb.Kind == mac.FbHeard {
		s.q.Remove(s.pendingTx)
		s.oldRemaining--
		s.pendingTx = -1
		return
	}
	if s.id != j || i == j {
		return
	}
	heard := fb.Kind == mac.FbHeard
	switch {
	case r == 0:
		s.large[i] = heard
	case r == 1:
		s.gtL[i] = heard
	default:
		field := (r - 2) / int64(s.sh.lgL)
		var b int64
		if heard {
			b = 1
		}
		switch field {
		case 0:
			s.sizes[i] = s.sizes[i]<<1 | b
		case 1:
			s.cntToMe[i] = s.cntToMe[i]<<1 | b
		default:
			s.cntLessMe[i] = s.cntLessMe[i]<<1 | b
		}
	}
	if heard {
		p := fb.Msg.Packet
		// Adopt unless the packet was just delivered: to me (the
		// listener), or to the transmitter i itself, which is switched on
		// and hears its own message.
		if p.Dest != s.id && p.Dest != i {
			s.relayQ.Push(p) // adopt: I relay it in the Auxiliary stage
		}
	}
}

// observeDelivery handles Main and Auxiliary rounds: the only bookkeeping
// is the transmitter removing a delivered packet.
func (s *station) observeDelivery(fb mac.Feedback) {
	if s.pendingTx < 0 || fb.Kind != mac.FbHeard {
		return
	}
	if s.pendingRelay {
		s.relayQ.Remove(s.pendingTx)
	} else {
		s.q.Remove(s.pendingTx)
		s.oldRemaining--
	}
	s.pendingTx = -1
	s.pendingRelay = false
}

func (s *station) QueueLen() int {
	return len(s.staging) + s.q.Len() + s.relayQ.Len()
}

// CurrentWindow reports the window size a station of an Adjust-Window
// system has converged to (for experiments reporting the latency bound
// 2·L_final).
func CurrentWindow(p core.Protocol) int64 {
	if st, ok := p.(*station); ok {
		return st.sh.L
	}
	return 0
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	dst = append(dst, s.staging...)
	dst = s.q.AppendTo(dst)
	return s.relayQ.AppendTo(dst)
}
