// Package duty implements threshold-rule duty-cycling as a wrapper over
// any registered algorithm's station set (ISSUE 8; after Giroire et al.,
// "Energy Efficient Routing by Switching-Off Network Interfaces").
//
// A wrapped station runs its inner protocol unchanged but may suppress
// the rounds the inner protocol would merely *listen* in: once its queue
// has been empty for SleepAfterIdle consecutive rounds it switches off
// instead of listening (waking every WakeEvery rounds to peek at the
// channel, if configured), and once it has spent EnergyBudget switched-on
// rounds it stops listening for good. Transmissions are always honored —
// sleeping must never destroy a packet the inner protocol decided to
// send — and a fresh injection resets the idle clock, so loaded stations
// behave exactly like the unwrapped algorithm.
//
// The price of sleeping is paid in deliveries, not protocol corruption: a
// direct algorithm's transmitter retires a packet on an uncontended heard
// round even when the sleeping destination missed it, which the simulator
// counts as a drop (metrics.Counters.Dropped). Only algorithms whose
// registry metadata declares Tolerant compose safely with duty-cycling;
// the facade enforces that.
//
// Wrapping clears the system's oblivious schedule claim: the sleep rules
// are adaptive (they depend on queue history), so the wrapped system is
// no longer schedule-conformant and must not advertise one.
//
// A wrapped system fast-forwards under the quiescence engine (DESIGN.md
// §16) when its inner system declares a constant, silent idle profile,
// Skipper stations and FeedbackFreeIdle. With every station asleep, a
// non-wake round is silent at zero energy, and a WakeEvery round plays
// the inner idle round awake; both tick in O(1). Under an EnergyBudget a
// wake round is swept instead, since its listens count against the
// budget.
//
// It is swept sparsely (core.Awaker) whenever its inner system is:
// sleeping only suppresses listens, so the inner awake set bounds the
// wrapped one, and the idle clock is a round stamp (see station.idle),
// so an Off round the simulator skips leaves nothing to replay.
package duty

import (
	"earmac/internal/core"
	"earmac/internal/mac"
)

// Params are the threshold knobs. The zero value disables duty-cycling
// entirely (Wrap then returns the system unchanged).
type Params struct {
	// SleepAfterIdle switches a station off instead of listening once
	// its queue has been empty for this many consecutive rounds
	// (0 = never sleep on idleness).
	SleepAfterIdle int64
	// WakeEvery, when > 0, wakes an idle-sleeping station every
	// WakeEvery rounds for one round, so it can still be reached.
	WakeEvery int64
	// EnergyBudget, when > 0, is the residual-energy threshold: after a
	// station has spent this many switched-on rounds it suppresses all
	// further listening (transmissions still go out).
	EnergyBudget int64
}

// Enabled reports whether any knob is active.
func (p Params) Enabled() bool { return p.SleepAfterIdle > 0 || p.EnergyBudget > 0 }

// Group is the shared sleep bookkeeping for one wrapped station set.
type Group struct {
	p Params

	curRound    int64
	curAsleep   int
	sleepRounds int64

	// Quiescence fast-forward bookkeeping (set only when Wrap validated
	// the inner system for duty-level skipping): innerOn is the inner
	// idle profile's energy — the listens suppressed per slept round —
	// and skippedTo guards the group-level accrual, which every
	// station's SkipIdle reports but must apply exactly once.
	innerOn   int
	skippedTo int64
}

// skipIdle accrues the group counters for a skipped quiescent stretch:
// the inner idle round's listeners sleep through every round of it but
// the WakeEvery wake rounds, which they spend awake.
func (g *Group) skipIdle(from, to int64) {
	if to <= g.skippedTo {
		return
	}
	if from < g.skippedTo {
		from = g.skippedTo
	}
	slept, asleep := to-from, g.innerOn
	if w := g.p.WakeEvery; w > 0 {
		slept -= floorDiv(to-1, w) - floorDiv(from-1, w) // wake rounds in [from, to)
		if (to-1)%w == 0 {
			asleep = 0
		}
	}
	g.sleepRounds += int64(g.innerOn) * slept
	g.curRound, g.curAsleep = to-1, asleep
	g.skippedTo = to
}

// floorDiv is a/b rounded toward minus infinity, for b > 0 (Go's /
// truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// Asleep returns the number of stations that suppressed their action in
// the round currently being (or just finished being) stepped. It is
// meaningful at round end, after every station has acted: between the
// façade's per-round Steps of a recorded run, or in the network's
// post-dispatch fold.
func (g *Group) Asleep() int { return g.curAsleep }

// SleepRounds returns the cumulative count of suppressed station-rounds.
func (g *Group) SleepRounds() int64 { return g.sleepRounds }

type station struct {
	g     *Group
	inner core.Protocol
	sk    mac.Skipper // inner as a Skipper when duty-level skip is validated, else nil
	busy  int64       // the last round that ended with a non-empty queue (see idle)
	spent int64       // switched-on rounds consumed against EnergyBudget (counted only when set)
}

//earmac:hotpath
func (s *station) Inject(p mac.Packet) {
	s.busy = p.Injected - 1 // traffic wakes the station this very round
	s.inner.Inject(p)
}

//earmac:hotpath
func (s *station) Act(round int64) core.Action {
	g := s.g
	if round != g.curRound {
		g.curRound, g.curAsleep = round, 0
	}
	a := s.inner.Act(round)
	if a.On && !a.Transmit && s.sleeping(round) {
		a = core.Action{} // off: the listen is suppressed, nothing else
		g.curAsleep++
		g.sleepRounds++
	}
	if a.On && g.p.EnergyBudget > 0 {
		s.spent++
	}
	if s.inner.QueueLen() != 0 {
		s.busy = round
	}
	return a
}

// idle is the idle clock at round: how many consecutive rounds before
// it ended with an empty queue. A queue empties only in an Observe,
// after an Act that stamped busy, and an Inject stamps the round before
// its own; so the clock is round−1−busy over an empty queue and 0 over
// a held packet (one an Observe hands over counts from that round on),
// and neither an Off round the simulator skips nor a quiescent stretch
// has to move it.
func (s *station) idle(round int64) int64 {
	if s.inner.QueueLen() != 0 {
		return 0
	}
	return round - 1 - s.busy
}

// sleeping decides whether a would-be listen round is suppressed.
func (s *station) sleeping(round int64) bool {
	if s.exhausted() {
		return true // exhausted: no wake schedule brings it back
	}
	if s.asleepIdle(round) {
		return !(s.g.p.WakeEvery > 0 && round%s.g.p.WakeEvery == 0)
	}
	return false
}

// asleepIdle reports whether the idle clock at round has reached the
// sleep threshold.
func (s *station) asleepIdle(round int64) bool {
	return s.g.p.SleepAfterIdle > 0 && s.idle(round) >= s.g.p.SleepAfterIdle
}

func (s *station) exhausted() bool {
	return s.g.p.EnergyBudget > 0 && s.spent >= s.g.p.EnergyBudget
}

// Quiescent implements mac.Skipper: an empty station that is past its
// sleep threshold (or out of budget) stays off every non-wake round, so
// the system-wide idle round is silent with energy zero. The idle clock
// only grows while empty, and exhaustion is permanent, so the state
// persists across the skipped stretch. The simulator asks right after
// a round, so the clock is read at the round after the one the group
// last stepped; if no station of the group acted in the simulator's
// last round, that round is stale and the clock reads low, which can
// only answer false.
func (s *station) Quiescent() bool {
	return s.sk != nil && s.sk.Quiescent() && (s.exhausted() || s.asleepIdle(s.g.curRound+1))
}

// SkipIdle implements mac.Skipper for a stretch the station slept
// through, waking only at WakeEvery rounds: the inner protocol's idle
// evolution is feedback-free (Wrap required the inner system's
// FeedbackFreeIdle), the idle clock runs on by itself over the empty
// queue, no budget is spent (a wake round inside a stretch implies no
// EnergyBudget, see IdleBreak), and the group accrues the suppressed
// listens once.
func (s *station) SkipIdle(from, to int64) {
	s.sk.SkipIdle(from, to)
	s.g.skipIdle(from, to)
}

//earmac:hotpath
func (s *station) Observe(round int64, fb mac.Feedback) { s.inner.Observe(round, fb) }

func (s *station) QueueLen() int { return s.inner.QueueLen() }

// AppendHeld forwards conservation checks: sleeping never moves or
// destroys queued packets, so the inner holder's view is the truth.
func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	if h, ok := s.inner.(core.PacketHolder); ok {
		return h.AppendHeld(dst)
	}
	return dst
}

// Wrap returns sys with every station duty-cycled under p, plus the
// Group exposing the sleep counters. With p zero it returns (sys, nil)
// unchanged. The wrapped system drops the oblivious schedule claim (see
// the package comment); everything else in Info is preserved — in
// particular EnergyCap, which sleeping can only help satisfy.
func Wrap(sys *core.System, p Params) (*core.System, *Group) {
	if !p.Enabled() {
		return sys, nil
	}
	g := &Group{p: p, curRound: -1}
	stations := make([]core.Protocol, len(sys.Stations))
	wrapped := make([]*station, len(sys.Stations))
	for i, st := range sys.Stations {
		ws := &station{g: g, inner: st, busy: -1}
		wrapped[i], stations[i] = ws, ws
	}
	info := sys.Info
	info.Oblivious = false
	// Sleeping only suppresses listens, so the inner awake set bounds
	// the wrapped one, and a wrapped station acting Off leaves no state
	// behind when its inner station does not (see station.idle).
	out := &core.System{Info: info, Stations: stations, Awake: sys.Awake}
	if inner, ok := skipProfile(sys); ok {
		g.innerOn = inner.Energy
		for i, st := range sys.Stations {
			wrapped[i].sk = st.(mac.Skipper)
		}
		out.Idle = dutyIdle{g: g}
		// The idle clock and the budget never read feedback.
		out.FeedbackFreeIdle = true
	}
	return out, g
}

// skipProfile decides whether the wrapped system supports quiescence
// fast-forward, returning the inner idle round. It requires the inner
// system to declare a constant silent idle profile (a light profile
// means idle transmissions, which sleeping never suppresses) and
// FeedbackFreeIdle, and every inner station to be a mac.Skipper —
// duty-slept stations act every round but never observe, so an inner
// SkipIdle that replays feedback effects would diverge from the slept
// execution.
func skipProfile(sys *core.System) (core.IdleRound, bool) {
	if sys.Idle == nil || !sys.FeedbackFreeIdle {
		return core.IdleRound{}, false
	}
	e, ok := core.IdleConstOf(sys.Idle)
	if !ok || e.Light || e.CtrlBits != 0 {
		return core.IdleRound{}, false
	}
	for _, st := range sys.Stations {
		if _, ok := st.(mac.Skipper); !ok {
			return core.IdleRound{}, false
		}
	}
	return e, true
}

// dutyIdle is the wrapped system's idle profile: with every station
// asleep (Quiescent), each non-wake round is silent with energy zero.
// WakeEvery rounds break the profile — the sleeping stations listen —
// so they are reported as idle breaks, which IdleBreak describes.
type dutyIdle struct{ g *Group }

var _ core.IdleHorizon = dutyIdle{}

// AppendIdleCycle implements core.IdleProfiler.
func (d dutyIdle) AppendIdleCycle(from int64, buf []core.IdleRound) []core.IdleRound {
	return append(buf, core.IdleRound{})
}

// NextIdleBreak implements core.IdleHorizon.
func (d dutyIdle) NextIdleBreak(from int64) int64 {
	w := d.g.p.WakeEvery
	if w <= 0 {
		return -1
	}
	return from + (w-from%w)%w
}

// IdleBreak implements core.IdleHorizon. With no EnergyBudget no
// quiescent station sleeps at a wake round, so the inner idle round
// plays out: its listeners switch on and hear the channel. Under a
// budget the wake's listens count against it and an exhausted station
// sleeps through wakes, so the break is left to a full sweep.
func (d dutyIdle) IdleBreak(t int64) (core.IdleRound, bool) {
	if d.g.p.EnergyBudget > 0 {
		return core.IdleRound{}, false
	}
	return core.IdleRound{Energy: d.g.innerOn}, true
}
