// Package orchestra implements algorithm Orchestra (paper §3.1): a
// direct-routing algorithm with energy cap 3 that is stable at the
// maximum injection rate 1, keeping at most 2n³ + β packets queued
// (Theorem 1). By Theorem 2 the cap 3 is optimal: cap 2 cannot sustain
// rate 1.
//
// Time is divided into seasons of n−1 rounds. One station per season, the
// conductor, transmits in every round; the remaining stations (musicians)
// switch on only to learn (one round per season each, in name order) or
// to receive a packet (per the schedule the same conductor taught them in
// its previous conducting season) — so at most three stations are on in a
// round: conductor, learner, receiver.
//
// At the start of its conducting season, a conductor computes from its
// old, not-yet-scheduled packets (in injection order, up to n−1 of them)
// the schedule for its *next* conducting season, and teaches it during
// the current season: the message of round j carries, as control bits,
// the receive-round mask for the j-th musician plus a toggle bit
// announcing whether the conductor is big (≥ n²−1 old packets). Big
// conductors are moved to the front of the replicated baton list at
// season end and keep the baton while big; otherwise the baton passes to
// the next station in cyclic list order.
//
// Packets injected into the conductor stay new for the season (they only
// become schedulable afterwards); packets injected into musicians are old
// immediately. The receive-round mask needs n−1 control bits per message,
// more than the paper's O(log n) budget — an encoding the paper leaves
// open; see DESIGN.md §4.
package orchestra

import (
	"fmt"

	"earmac/internal/batonlist"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
)

type station struct {
	id, n int

	list *batonlist.List // replicated baton list

	staging []mac.Packet // injected this round, classified on next Act
	pending *pktq.Queue  // old packets not yet scheduled (injection order)
	fresh   []mac.Packet // injected while conducting: new for the season

	sigmaCur  []mac.Packet // schedule executing in my current/next conducting season
	delivered int          // prefix of sigmaCur already delivered
	sigmaNext []mac.Packet // schedule being taught this conducting season

	activeMask []bool // taught(conductor) for the current season
	// masks holds, per conductor, the receive masks it taught this
	// station, double-buffered: a mask is written during one of the
	// conductor's seasons and read (as activeMask) during the next, so
	// two buffers per conductor suffice and learning allocates nothing
	// in steady state. Nil until this station's first learning round.
	masks []taughtMasks

	ctrl mac.Control // conductor's reused teaching-message buffer

	curSeason   int64
	announceBig bool // conductor: my big status this season
	seasonBig   bool // learned/own big status, applied to the list at season end
	pendingTx   bool
}

// New builds an Orchestra system for n ≥ 2 stations.
func New(n int) (*core.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("orchestra: need n >= 2, got %d", n)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = &station{
			id: i, n: n,
			ctrl:      mac.MakeControl(1 + n - 1),
			list:      batonlist.New(ids),
			pending:   pktq.New(n),
			curSeason: -1,
		}
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:      "orchestra",
			EnergyCap: 3,
			Direct:    true,
		},
		Stations: stations,
		// Idle rounds are light: the conductor transmits an all-zero
		// teaching message, the round's learner listens, and no receiver
		// is scheduled (all taught masks are provably all-false while
		// quiescent — see Quiescent).
		Idle: core.ConstIdle{
			Energy:   2,
			Light:    true,
			CtrlBits: stations[0].(*station).ctrl.Bits(),
		},
	}, nil
}

func (s *station) seasonLen() int64 { return int64(s.n - 1) }

// learnerOf returns the station learning in round j of a season: the j-th
// musician in name order given the current conductor.
func (s *station) learnerOf(j int64, conductor int) int {
	if int(j) < conductor {
		return int(j)
	}
	return int(j) + 1
}

func (s *station) Inject(p mac.Packet) { s.staging = append(s.staging, p) }

// drainStaging classifies packets injected this round: new if this
// station is currently conducting, old otherwise.
func (s *station) drainStaging() {
	if len(s.staging) == 0 {
		return
	}
	conducting := s.list.Holder() == s.id
	for _, p := range s.staging {
		if conducting {
			s.fresh = append(s.fresh, p)
		} else {
			s.pending.Push(p)
		}
	}
	s.staging = s.staging[:0]
}

func (s *station) endSeason() {
	if s.curSeason < 0 {
		return
	}
	wasConductor := s.list.Holder() == s.id
	if s.seasonBig {
		s.list.MoveHolderToFront()
	} else {
		s.list.Advance()
	}
	s.seasonBig = false
	if wasConductor {
		if s.delivered != len(s.sigmaCur) {
			panic(fmt.Sprintf("orchestra: station %d ends its season with %d/%d scheduled packets delivered",
				s.id, s.delivered, len(s.sigmaCur)))
		}
		// The outgoing sigmaCur is fully delivered: recycle its backing
		// array for the schedule drawn next season.
		s.sigmaCur, s.sigmaNext = s.sigmaNext, s.sigmaCur[:0]
		s.delivered = 0
		for _, p := range s.fresh {
			s.pending.Push(p)
		}
		s.fresh = s.fresh[:0]
	}
}

func (s *station) startSeason(season int64) {
	s.curSeason = season
	conductor := s.list.Holder()
	s.activeMask = nil
	s.announceBig = false
	if conductor != s.id {
		s.activeMask = s.taught(conductor)
		return
	}
	// Conducting: bigness is judged on old packets (pending plus packets
	// already scheduled but not delivered), then the next season's
	// schedule is drawn from the unscheduled old packets in injection
	// order.
	oldCount := s.pending.Len() + (len(s.sigmaCur) - s.delivered)
	s.announceBig = oldCount >= s.n*s.n-1
	s.seasonBig = s.announceBig
	slots := int(s.seasonLen())
	if s.pending.Len() < slots {
		slots = s.pending.Len()
	}
	s.sigmaNext = s.sigmaNext[:0]
	for i := 0; i < slots; i++ {
		p, _ := s.pending.PopFront()
		s.sigmaNext = append(s.sigmaNext, p)
	}
}

func (s *station) Act(round int64) core.Action {
	season := round / s.seasonLen()
	j := round % s.seasonLen()
	if season != s.curSeason {
		s.endSeason()
		s.startSeason(season)
	}
	s.drainStaging()
	s.pendingTx = false

	conductor := s.list.Holder()
	if s.id == conductor {
		// Control bits: toggle bit plus the learner's receive mask for my
		// next conducting season.
		learner := s.learnerOf(j, conductor)
		ctrl := s.ctrl
		for i := range ctrl {
			ctrl[i] = 0
		}
		ctrl.SetBit(0, s.announceBig)
		for slot, p := range s.sigmaNext {
			if p.Dest == learner {
				ctrl.SetBit(1+slot, true)
			}
		}
		if int(j) < len(s.sigmaCur) {
			s.pendingTx = true
			return core.Transmit(mac.Message{HasPacket: true, Packet: s.sigmaCur[j], Ctrl: ctrl})
		}
		return core.Transmit(mac.CtrlMsg(ctrl)) // light round
	}

	// Musician: on to learn in my learning round, on to receive per the
	// active mask.
	if s.learnerOf(j, conductor) == s.id {
		return core.Listen()
	}
	if s.activeMask != nil && s.activeMask[j] {
		return core.Listen()
	}
	return core.Off()
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	if fb.Kind != mac.FbHeard {
		// The conductor transmits every round; silence or collision would
		// be a protocol bug.
		panic(fmt.Sprintf("orchestra: station %d observed %v", s.id, fb.Kind))
	}
	j := round % s.seasonLen()
	conductor := s.list.Holder()
	if s.id == conductor {
		if s.pendingTx {
			s.delivered++
			s.pendingTx = false
		}
		return
	}
	if s.learnerOf(j, conductor) == s.id {
		mask := s.nextMaskBuf(conductor)
		for slot := range mask {
			mask[slot] = fb.Msg.Ctrl.Bit(1 + slot)
		}
		if fb.Msg.Ctrl.Bit(0) {
			s.seasonBig = true
		}
	}
}

// taughtMasks is one conductor's pair of mask buffers; buf[cur] is the
// mask it taught last (nil before its first teaching).
type taughtMasks struct {
	buf [2][]bool
	cur int
}

// taught returns the receive mask the conductor taught this station for
// its next conducting season, or nil if it has taught none.
func (s *station) taught(conductor int) []bool {
	if s.masks == nil {
		return nil
	}
	m := &s.masks[conductor]
	return m.buf[m.cur]
}

// nextMaskBuf flips to and returns the mask buffer to fill for the
// conductor's next season: the one not currently aliased by a
// possibly-active mask.
func (s *station) nextMaskBuf(conductor int) []bool {
	if s.masks == nil {
		s.masks = make([]taughtMasks, s.n)
	}
	m := &s.masks[conductor]
	m.cur = 1 - m.cur
	if m.buf[m.cur] == nil {
		m.buf[m.cur] = make([]bool, s.seasonLen())
	}
	return m.buf[m.cur]
}

func (s *station) QueueLen() int {
	return len(s.staging) + s.pending.Len() + len(s.fresh) +
		(len(s.sigmaCur) - s.delivered) + len(s.sigmaNext)
}

// Quiescent implements mac.Skipper. Requiring len(sigmaCur) == 0 — not
// merely delivered == len(sigmaCur) — makes every taught mask provably
// all-false: a mask's set bits mirror the schedule that is now the
// teacher's sigmaCur, so empty schedules everywhere mean no musician is
// ever scheduled to receive, and idle learning rounds rewrite all-false
// masks with all-false masks (a write SkipIdle may therefore elide; the
// buffer-flip bookkeeping it also skips is unobservable). The conductor
// with a just-delivered schedule declines until its season ends.
func (s *station) Quiescent() bool {
	return len(s.staging) == 0 && s.pending.Len() == 0 && len(s.fresh) == 0 &&
		len(s.sigmaCur) == 0 && len(s.sigmaNext) == 0 &&
		!s.pendingTx && !s.announceBig && !s.seasonBig && s.curSeason >= 0
}

// SkipIdle implements mac.Skipper: each skipped season boundary advanced
// the baton by one (nobody is big while quiescent), and every idle
// round's remaining effects — empty-schedule drains, all-false mask
// writes — are no-ops on quiescent state. The final partial season's
// startSeason effects reduce to repointing the active mask.
func (s *station) SkipIdle(from, to int64) {
	sTo := (to - 1) / s.seasonLen()
	b := sTo - s.curSeason
	if b <= 0 {
		return
	}
	s.list.AdvanceBy(b)
	s.curSeason = sTo
	if h := s.list.Holder(); h == s.id {
		s.activeMask = nil
	} else {
		s.activeMask = s.taught(h)
	}
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	dst = append(dst, s.staging...)
	dst = s.pending.AppendTo(dst)
	dst = append(dst, s.fresh...)
	dst = append(dst, s.sigmaCur[s.delivered:]...)
	return append(dst, s.sigmaNext...)
}
