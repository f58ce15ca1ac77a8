package broadcast

import (
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
	"earmac/internal/sched"
)

// alwaysOn is the trivial oblivious schedule of the original broadcast
// setting: every station on in every round (energy cap n).
func alwaysOn(n int) sched.Schedule {
	return sched.Func{N: n, P: 1, F: func(int, int64) bool { return true }}
}

func identities(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// rrwStation runs Round-Robin-Withholding [18]: the token holder
// transmits all its packets, one per round; a silent round passes the
// token. Stable for every injection rate ρ < 1.
type rrwStation struct {
	id        int
	ring      *Ring
	q         *pktq.Queue
	pendingTx int64
	oldFirst  bool
	tail      PhaseTail // OF-RRW: the queue's suffix pushed in the latest phase
}

func newRRWStation(id int, members []int, oldFirst bool) *rrwStation {
	return &rrwStation{
		id:        id,
		ring:      NewRing(members),
		q:         pktq.New(len(members)),
		pendingTx: -1,
		oldFirst:  oldFirst,
	}
}

func (s *rrwStation) Inject(p mac.Packet) {
	s.q.Push(p)
	s.tail.Pushed(s.ring.Phase())
}

func (s *rrwStation) Act(round int64) core.Action {
	s.pendingTx = -1
	if s.ring.Holder() != s.id {
		return core.Listen()
	}
	front, ok := s.q.Front()
	if !ok {
		return core.Listen()
	}
	if s.oldFirst && s.tail.FrontIsNew(s.ring.Phase(), s.q.Len()) {
		// The oldest packet is new for this phase, hence all are: withhold.
		return core.Listen()
	}
	s.pendingTx = front.ID
	return core.Transmit(mac.PacketMsg(front))
}

func (s *rrwStation) Observe(round int64, fb mac.Feedback) {
	switch fb.Kind {
	case mac.FbHeard:
		if s.pendingTx >= 0 {
			s.q.Remove(s.pendingTx)
		}
		s.ring.ObserveHeard()
	case mac.FbSilence:
		s.ring.ObserveSilence()
	}
	// Collisions cannot occur: only the unique token holder transmits.
}

func (s *rrwStation) QueueLen() int { return s.q.Len() }

func (s *rrwStation) AppendHeld(dst []mac.Packet) []mac.Packet { return s.q.AppendTo(dst) }

// mbtfStation runs Move-Big-To-Front [17]: the token holder transmits
// until empty, flagging a control bit when its queue is big; heard big
// bits move the holder to the list front. Stable at injection rate 1.
type mbtfStation struct {
	id        int
	m         *MBTF
	q         *pktq.Queue
	ctrl      mac.Control // reused big-bit buffer; receivers never retain it
	pendingTx int64
}

func newMBTFStation(id int, members []int) *mbtfStation {
	return &mbtfStation{
		id: id, m: NewMBTF(members), q: pktq.New(len(members)),
		ctrl: mac.MakeControl(1), pendingTx: -1,
	}
}

func (s *mbtfStation) Inject(p mac.Packet) { s.q.Push(p) }

func (s *mbtfStation) Act(round int64) core.Action {
	s.pendingTx = -1
	if s.m.Holder() != s.id {
		return core.Listen()
	}
	front, ok := s.q.Front()
	if !ok {
		return core.Listen()
	}
	s.pendingTx = front.ID
	s.ctrl.SetBit(0, s.q.Len() >= s.m.Threshold())
	return core.Transmit(mac.Message{HasPacket: true, Packet: front, Ctrl: s.ctrl})
}

func (s *mbtfStation) Observe(round int64, fb mac.Feedback) {
	switch fb.Kind {
	case mac.FbHeard:
		if s.pendingTx >= 0 {
			s.q.Remove(s.pendingTx)
		}
		s.m.ObserveHeard(fb.Msg.Ctrl.Bit(0))
	case mac.FbSilence:
		s.m.ObserveSilence()
	}
}

func (s *mbtfStation) QueueLen() int { return s.q.Len() }

func (s *mbtfStation) AppendHeld(dst []mac.Packet) []mac.Packet { return s.q.AppendTo(dst) }

// NewRRWSystem builds the standalone RRW baseline: n always-on stations
// (energy cap n), plain packets, direct delivery.
func NewRRWSystem(n int) *core.System {
	ids := identities(n)
	stations := make([]core.Protocol, n)
	for i := range stations {
		stations[i] = newRRWStation(i, ids, false)
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name: "rrw", EnergyCap: n, PlainPacket: true, Direct: true, Oblivious: true,
		},
		Stations: stations,
		Schedule: alwaysOn(n),
	}
}

// NewOFRRWSystem builds the standalone OF-RRW baseline [3].
func NewOFRRWSystem(n int) *core.System {
	ids := identities(n)
	stations := make([]core.Protocol, n)
	for i := range stations {
		stations[i] = newRRWStation(i, ids, true)
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name: "ofrrw", EnergyCap: n, PlainPacket: true, Direct: true, Oblivious: true,
		},
		Stations: stations,
		Schedule: alwaysOn(n),
	}
}

// NewMBTFSystem builds the standalone MBTF baseline [17] — throughput 1
// without an energy cap.
func NewMBTFSystem(n int) *core.System {
	ids := identities(n)
	stations := make([]core.Protocol, n)
	for i := range stations {
		stations[i] = newMBTFStation(i, ids)
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name: "mbtf", EnergyCap: n, PlainPacket: false, Direct: true, Oblivious: true,
		},
		Stations: stations,
		Schedule: alwaysOn(n),
	}
}
