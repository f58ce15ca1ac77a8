package core

// The quiescence fast-forward engine (DESIGN.md §16). All methods here
// run only with skipOK resolved at NewSim, which requires that no
// validator is attached; a validated sim never skips. See skip.go for
// the contracts.

// tryEnterQuiescence is called after a completed round whose
// total queue was zero; s.round is the next unexecuted round. It asks
// every station whether its idle behavior is fast-forwardable and the
// profiler for the system's idle cycle, anchoring both at s.round.
func (s *Sim) tryEnterQuiescence() {
	for _, sk := range s.skippers {
		if !sk.Quiescent() {
			return
		}
	}
	s.idleCycle = s.sys.Idle.AppendIdleCycle(s.round, s.idleCycle[:0])
	if len(s.idleCycle) == 0 {
		return // profiler declined from this state
	}
	s.idleAnchor = s.round
	s.qFrom = s.round
	s.idleBreakAt = -1
	if s.idleHor != nil {
		s.idleBreakAt = s.idleHor.NextIdleBreak(s.round)
	}
	s.buildIdlePrefix()
	s.quiescent = true
}

// buildIdlePrefix precomputes one-cycle prefix sums for the span-skip
// accrual; buffers are reused so re-entering quiescence allocates
// nothing in steady state.
func (s *Sim) buildIdlePrefix() {
	p := len(s.idleCycle)
	if cap(s.prefEnergy) < p+1 {
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefEnergy = make([]int64, p+1)
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefLight = make([]int64, p+1)
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefCtrl = make([]int64, p+1)
	}
	s.prefEnergy = s.prefEnergy[:p+1]
	s.prefLight = s.prefLight[:p+1]
	s.prefCtrl = s.prefCtrl[:p+1]
	s.prefEnergy[0], s.prefLight[0], s.prefCtrl[0] = 0, 0, 0
	s.cycleMaxE = 0
	for i, e := range s.idleCycle {
		s.prefEnergy[i+1] = s.prefEnergy[i] + int64(e.Energy)
		s.prefLight[i+1] = s.prefLight[i]
		s.prefCtrl[i+1] = s.prefCtrl[i]
		if e.Light {
			s.prefLight[i+1]++
			s.prefCtrl[i+1] += int64(e.CtrlBits)
		}
		if e.Energy > s.cycleMaxE {
			s.cycleMaxE = e.Energy
		}
	}
}

// idleEntry returns the profile entry describing round t.
func (s *Sim) idleEntry(t int64) IdleRound {
	return s.idleCycle[(t-s.idleAnchor)%int64(len(s.idleCycle))]
}

// prefRange sums a one-cycle prefix array over profile offsets [a, b)
// measured from the anchor, extended periodically.
func (s *Sim) prefRange(pref []int64, a, b int64) int64 {
	p := int64(len(s.idleCycle))
	total := pref[p]
	return (b/p)*total + pref[b%p] - ((a/p)*total + pref[a%p])
}

// quiescentAdvance executes one quiescent round — an O(1) tick, or a
// wake-up full sweep when the round carries an event — and then
// attempts a span skip toward end. The per-round external state
// (adversary bucket, replay cursors, the Disruption) advances exactly
// as on the classic loop: gather and the disruption consult run for
// every ticked round. A wake-up returns stepFrom's error, always nil
// here: the engine runs only on lenient sims.
//
//earmac:hotpath
func (s *Sim) quiescentAdvance(end int64) error {
	t := s.round
	injs := s.gather(t)
	var d Disrupt
	if s.disrupt != nil {
		d = s.disrupt.Disrupt(t)
	}
	// A wake-up is forced by a pending injection, an idle-profile break
	// the horizon cannot predict (IdleBreak declines), or a disrupted
	// round some station would observe (the collision feedback may
	// alter station state, so it cannot be ticked). With zero idle
	// energy nobody is listening, and on a system that declares
	// FeedbackFreeIdle the collision changes nothing: either way the
	// tick just counts the jammed/outaged round. An accepted break
	// ticks with the entry IdleBreak returns, and the horizon moves on
	// to the next break.
	e, idle := s.idleEntry(t), len(injs) == 0
	brk := t == s.idleBreakAt
	if idle && brk {
		e, idle = s.idleHor.IdleBreak(t)
	}
	if !idle || (d != 0 && !s.sys.FeedbackFreeIdle && e.Energy > 0) {
		s.wake(t)
		return s.stepFrom(t, injs, d)
	}
	s.tick(t, d, e)
	if brk {
		s.idleBreakAt = s.idleHor.NextIdleBreak(t + 1)
	}
	s.trySpan(end)
	return nil
}

// wake replays the skipped idle rounds into the stations and leaves
// quiescence; the caller then executes round t as a normal sweep.
func (s *Sim) wake(t int64) {
	s.skipIdle(t)
	s.quiescent = false
}

// skipIdle replays the quiescent stretch [qFrom, t) into every station
// and leaves them all at round t.
func (s *Sim) skipIdle(t int64) {
	if t <= s.qFrom {
		return
	}
	for _, sk := range s.skippers {
		sk.SkipIdle(s.qFrom, t)
	}
	s.qFrom = t
}

// tick is the O(1) quiescent round: the station sweep collapses to the
// idle round e the system plays at t — the profile's entry, or an
// accepted break's. The caller has already consulted the adversary (no
// injections) and the disruption hook.
//
//earmac:hotpath
func (s *Sim) tick(t int64, d Disrupt, e IdleRound) {
	tr := s.tracker
	switch {
	case d != 0:
		tr.CollisionRounds++
		if d&DisruptJam != 0 {
			tr.JammedRounds++
		}
		if d&DisruptOutage != 0 {
			tr.OutageRounds++
		}
	case e.Light:
		tr.HeardRounds++
		tr.LightRounds++
		tr.ControlBits += int64(e.CtrlBits)
	default:
		tr.SilentRounds++
	}
	tr.ObserveRound(t, 0, e.Energy)
	s.round++
}

// trySpan attempts the closed-form span skip after a successful tick,
// bounded by end (the Run horizon), the idle-profile break, the
// adversary's next possible event, and the disruption horizon. A span
// needs at least two rounds before end, so a one-round Step (the only
// way a network advances its channel sims) never computes a horizon;
// the network skips spans itself, under its own guarantees.
//
//earmac:hotpath
func (s *Sim) trySpan(end int64) {
	from := s.round
	if s.advSkip == nil || end-from < 2 {
		return
	}
	limit := end
	if s.disrupt != nil {
		if dh := s.disrupt.NextDisrupt(from); dh >= 0 && dh < limit {
			limit = dh
		}
	}
	if to := s.SpanHorizon(from, limit); to > from+1 {
		s.SkipSpan(to)
	}
}

// Quiescent reports whether the simulator is inside a quiescent
// stretch (always false for a sim with a validator attached).
func (s *Sim) Quiescent() bool { return s.quiescent }

// QuiescentConst returns the constant idle round of a quiescent sim
// whose profile is period-1, and whether that holds. A network channel
// goes lazy only on a constant profile: the fold then counts each
// skipped round's energy from that one idle round.
func (s *Sim) QuiescentConst() (IdleRound, bool) {
	if !s.quiescent || len(s.idleCycle) != 1 {
		return IdleRound{}, false
	}
	return s.idleCycle[0], true
}

// SpanHorizon returns the furthest round to <= limit such that rounds
// [from, to) are provably idle by the simulator's own constraints (the
// idle-profile break and the adversary's next possible event); from
// must equal Round(). It does not consult the Disruption — the
// single-channel span bounds itself by its NextDisrupt, and a topology
// layer owns its own disruption horizon.
func (s *Sim) SpanHorizon(from, limit int64) int64 {
	if !s.quiescent || s.advSkip == nil || from != s.round {
		return from
	}
	to := limit
	if s.idleBreakAt >= 0 && s.idleBreakAt < to {
		to = s.idleBreakAt
	}
	if nr := s.advSkip.NextEventRound(from); nr >= 0 && nr < to {
		to = nr
	}
	if to < from {
		to = from
	}
	return to
}

// SkipSpan accrues rounds [Round(), to) in closed form and jumps the
// clock to to. The window must have been established via SpanHorizon
// (plus, for topology layers, their own guarantee that no external
// injection or disruption lands inside it). Station state advances
// lazily — at the next wake-up or Settle.
//
//earmac:hotpath
func (s *Sim) SkipSpan(to int64) {
	from := s.round
	if to <= from {
		return
	}
	m := to - from
	tr := s.tracker
	a, b := from-s.idleAnchor, to-s.idleAnchor
	lights := s.prefRange(s.prefLight, a, b)
	tr.HeardRounds += lights
	tr.LightRounds += lights
	tr.SilentRounds += m - lights
	tr.ControlBits += s.prefRange(s.prefCtrl, a, b)
	esum := s.prefRange(s.prefEnergy, a, b)
	maxE := s.cycleMaxE
	if p := int64(len(s.idleCycle)); m < p {
		maxE = 0
		for r := from; r < to; r++ {
			if e := s.idleEntry(r).Energy; e > maxE {
				maxE = e
			}
		}
	}
	tr.ObserveQuietSpan(from, m, esum, maxE)
	if s.advSkip != nil {
		s.advSkip.SkipIdle(from, to)
	}
	s.round = to
}

// Settle replays any pending skipped rounds into the stations without
// leaving quiescence, so externally visible station state (queue
// snapshots, duty-cycle sleep totals) is exact at Run boundaries. A
// station a sparse sweep skipped in its Off rounds is exact already
// (Awaker). It is idempotent, and cheap when nothing is pending.
func (s *Sim) Settle() {
	if s.quiescent {
		s.skipIdle(s.round)
	}
}
