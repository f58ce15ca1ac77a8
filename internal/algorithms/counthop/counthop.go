// Package counthop implements algorithm Count-Hop (paper §4.1): a
// direct-routing, general (control-bit) algorithm with energy cap 2 that
// is universal — latency O((n²+β)/(1−ρ)) for every injection rate ρ < 1.
//
// Station 0 is a dedicated coordinator; the others are workers. An
// execution is structured into phases; packets injected during a phase
// become old at its end and are delivered during the next phase. A phase
// has one stage per receiving station v, and a stage has three substages:
//
//  1. every station w ≠ coordinator transmits, in name order, the number
//     of its old packets destined to v (coordinator listens);
//  2. the coordinator transmits to each w its transmit offset together
//     with the stage total, so every station knows when the stage ends
//     (the paper leaves the dissemination of the stage length implicit —
//     see DESIGN.md);
//  3. the senders wake one after another in name order and transmit their
//     old packets for v, one per round, while v listens throughout.
//
// At most two stations are ever on simultaneously. The first phase
// consists of n rounds with every station switched off (paper §4.1).
package counthop

import (
	"fmt"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
)

const coordinator = 0

// control-bit field widths: a count and an offset (32 bits each).
const ctrlW = 32

type substage int

const (
	subCounts substage = iota + 1
	subOffsets
	subSend
)

type station struct {
	id, n int

	oldQ *pktq.Queue // packets injected in earlier phases (deliver now)
	newQ *pktq.Queue // packets injected in the current phase

	bootstrap int // rounds remaining of the initial all-off phase

	v     int      // current stage: receiving station
	sub   substage // current substage
	idx   int      // index within the substage
	total int      // Σ old packets destined to v (known after substage 2)

	myCount int // this station's old-packet count for v (fixed in substage 1)
	offset  int // this station's slot start within substage 3

	counts  []int // coordinator only: per-station counts for v
	offsets []int // coordinator only: per-station slot starts

	// Reused control buffers: receivers decode the fields synchronously
	// from the round's feedback and never retain them (DESIGN.md,
	// pooling invariants).
	ctrlCount  mac.Control // substage 1: my old-packet count
	ctrlOffset mac.Control // substage 2: offset + stage total

	curRound  int64
	started   bool
	pendingTx int64
}

// New builds a Count-Hop system for n ≥ 2 stations.
func New(n int) (*core.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("counthop: need n >= 2, got %d", n)
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		s := &station{
			id: i, n: n,
			oldQ: pktq.New(n), newQ: pktq.New(n),
			bootstrap:  n,
			pendingTx:  -1,
			ctrlCount:  mac.MakeControl(ctrlW),
			ctrlOffset: mac.MakeControl(2 * ctrlW),
		}
		if i == coordinator {
			s.counts = make([]int, n)
			s.offsets = make([]int, n)
		}
		stations[i] = s
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:      "count-hop",
			EnergyCap: 2,
			Direct:    true,
		},
		Stations: stations,
		// Idle rounds are control-only ("light") heard rounds: with every
		// queue empty each stage runs n−1 zero-count reports and n−1
		// offset broadcasts, then skips substage 3 — a 2(n−1)-round cycle
		// anchored at the coordinator's replicated cursor.
		Idle: core.IdleProfileFunc(stations[coordinator].(*station).appendIdleCycle),
	}, nil
}

// cyclePos maps the replicated cursor to its position within the
// 2(n−1)-round idle cycle. Only valid in substages 1 and 2 (Quiescent
// declines in substage 3).
func (s *station) cyclePos() int64 {
	if s.sub == subOffsets {
		return int64(s.n-1) + int64(s.idx)
	}
	return int64(s.idx)
}

// appendIdleCycle implements core.IdleProfiler via the coordinator's
// replicated cursor (identical at every station while quiescent). Entry
// j describes round from+j; the cursor is post-Act of round from−1, so
// the position at from is one advance ahead.
func (s *station) appendIdleCycle(from int64, buf []core.IdleRound) []core.IdleRound {
	if !s.started || s.bootstrap > 0 || s.sub == subSend {
		return buf // decline: not in the steady idle cycle
	}
	p := int64(2 * (s.n - 1))
	q0 := (s.cyclePos() + 1) % p
	for j := int64(0); j < p; j++ {
		e := core.IdleRound{Energy: 2, Light: true, CtrlBits: s.ctrlCount.Bits()}
		if (q0+j)%p >= int64(s.n-1) {
			e.CtrlBits = s.ctrlOffset.Bits()
		}
		buf = append(buf, e)
	}
	return buf
}

// Quiescent implements mac.Skipper. The substage-3 tail (idx == total,
// cursor not yet advanced past the stage) declines for one round; the
// next sweep moves the cursor into the following stage.
func (s *station) Quiescent() bool {
	return s.started && s.bootstrap == 0 && s.sub != subSend &&
		s.pendingTx < 0 && s.oldQ.Len() == 0 && s.newQ.Len() == 0
}

// SkipIdle implements mac.Skipper: with all queues empty the replicated
// state is a pure function of the cycle position (counts and offsets are
// all zero, substage 3 is empty), so m rounds of advance-and-observe
// collapse to modular arithmetic plus a positional reset of the
// per-stage fields.
func (s *station) SkipIdle(from, to int64) {
	p := int64(2 * (s.n - 1))
	pf := s.cyclePos() + (to - from) // advances entering rounds from..to−1
	wraps := pf / p
	qf := pf % p
	s.v = int((int64(s.v) + wraps) % int64(s.n))
	s.myCount = 0
	if qf < int64(s.n-1) {
		s.sub, s.idx = subCounts, int(qf)
		s.total = -1
		s.offset = -1
		if s.id == coordinator {
			s.offset = 0
		}
	} else {
		s.sub, s.idx = subOffsets, int(qf)-(s.n-1)
		// A worker knows its offset and the stage total once the
		// coordinator's broadcast for it has happened (rounds 0..idx).
		if s.id == coordinator || s.id <= s.idx+1 {
			s.offset, s.total = 0, 0
		} else {
			s.offset, s.total = -1, -1
		}
	}
	if s.id == coordinator {
		for i := range s.counts {
			s.counts[i] = 0
			s.offsets[i] = 0
		}
	}
	s.curRound = to - 1
}

func (s *station) Inject(p mac.Packet) { s.newQ.Push(p) }

func (s *station) QueueLen() int { return s.oldQ.Len() + s.newQ.Len() }

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	return s.newQ.AppendTo(s.oldQ.AppendTo(dst))
}

// startPhase rolls new packets over to old at a phase boundary.
func (s *station) startPhase() {
	if s.oldQ.Len() != 0 {
		panic(fmt.Sprintf("counthop: station %d enters a phase with %d undelivered old packets", s.id, s.oldQ.Len()))
	}
	s.oldQ, s.newQ = s.newQ, s.oldQ
	s.v, s.sub, s.idx = 0, subCounts, 0
	s.total = -1
	s.stageInit()
}

// stageInit captures the per-stage quantities fixed at stage start.
func (s *station) stageInit() {
	s.myCount = s.oldQ.Count(s.v)
	s.offset = -1
	if s.id == coordinator {
		for i := range s.counts {
			s.counts[i] = 0
		}
		s.counts[coordinator] = s.myCount
		s.offset = 0 // the coordinator is first in name order
	}
}

func (s *station) nextStage() {
	s.v++
	if s.v == s.n {
		s.startPhase()
		return
	}
	s.sub, s.idx = subCounts, 0
	s.total = -1
	s.stageInit()
}

// advance moves the replicated cursor to the next round's position.
func (s *station) advance() {
	if s.bootstrap > 0 {
		s.bootstrap--
		if s.bootstrap == 0 {
			s.startPhase()
		}
		return
	}
	s.idx++
	switch s.sub {
	case subCounts:
		if s.idx == s.n-1 {
			s.sub, s.idx = subOffsets, 0
			if s.id == coordinator {
				s.computeOffsets()
			}
		}
	case subOffsets:
		if s.idx == s.n-1 {
			s.sub, s.idx = subSend, 0
			if s.total < 0 {
				panic(fmt.Sprintf("counthop: station %d entered substage 3 without the total", s.id))
			}
			if s.total == 0 {
				s.nextStage()
			}
		}
	case subSend:
		if s.idx == s.total {
			s.nextStage()
		}
	}
}

func (s *station) computeOffsets() {
	sum := 0
	for w := 0; w < s.n; w++ {
		s.offsets[w] = sum
		sum += s.counts[w]
	}
	s.total = sum
}

func (s *station) Act(round int64) core.Action {
	if s.started && round != s.curRound {
		s.advance()
	}
	s.started = true
	s.curRound = round
	s.pendingTx = -1

	if s.bootstrap > 0 {
		return core.Off()
	}

	switch s.sub {
	case subCounts:
		w := s.idx + 1
		switch s.id {
		case w:
			s.ctrlCount.SetUint(0, ctrlW, uint64(s.myCount))
			return core.Transmit(mac.CtrlMsg(s.ctrlCount))
		case coordinator:
			return core.Listen()
		default:
			return core.Off()
		}

	case subOffsets:
		w := s.idx + 1
		switch s.id {
		case coordinator:
			s.ctrlOffset.SetUint(0, ctrlW, uint64(s.offsets[w]))
			s.ctrlOffset.SetUint(ctrlW, ctrlW, uint64(s.total))
			return core.Transmit(mac.CtrlMsg(s.ctrlOffset))
		case w:
			return core.Listen()
		default:
			return core.Off()
		}

	case subSend:
		j := s.idx
		if s.inSlot(j) {
			p, ok := s.oldQ.FrontTo(s.v)
			if !ok {
				panic(fmt.Sprintf("counthop: station %d scheduled to send to %d but has no packet", s.id, s.v))
			}
			s.pendingTx = p.ID
			return core.Transmit(mac.PacketMsg(p))
		}
		if s.id == s.v {
			return core.Listen()
		}
		return core.Off()
	}
	return core.Off()
}

// inSlot reports whether round-index j of substage 3 falls in this
// station's transmit slot.
func (s *station) inSlot(j int) bool {
	return s.offset >= 0 && j >= s.offset && j < s.offset+s.myCount
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	if fb.Kind != mac.FbHeard {
		return
	}
	switch s.sub {
	case subCounts:
		if s.id == coordinator {
			w := s.idx + 1
			s.counts[w] = int(fb.Msg.Ctrl.Uint(0, ctrlW))
		}
	case subOffsets:
		if s.id == s.idx+1 {
			s.offset = int(fb.Msg.Ctrl.Uint(0, ctrlW))
			s.total = int(fb.Msg.Ctrl.Uint(ctrlW, ctrlW))
		}
	case subSend:
		if s.pendingTx >= 0 {
			s.oldQ.Remove(s.pendingTx)
			s.pendingTx = -1
		}
	}
}
