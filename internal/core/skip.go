package core

// Quiescence fast-forward (DESIGN.md §16). When a system declares its
// idle-round profile (System.Idle) and every station implements
// mac.Skipper, a sim with no validator attached replaces idle rounds
// with two tiers of closed-form bookkeeping:
//
//   - a quiescent tick: the O(n) station sweep collapses to an O(1)
//     counter update, while all per-round external state (adversary
//     bucket, replay cursors, the disruption source) still advances
//     exactly;
//   - a span skip: when the next possible event round is computable
//     (EventSkipper on the adversary, IdleHorizon on the profile,
//     Disruption.NextDisrupt on the disruption source), the simulator
//     jumps from→to in one step, accruing energy, channel-utilization
//     counters, and queue samples in closed form.
//
// Both tiers are bit-identical to executing the rounds: a tick covers
// one round whose injections and disruption were consulted normally; a
// span covers only rounds proven free of injections, disruption, and
// observers. Anything the engine cannot prove pins the horizon and the
// loop degrades to today's per-round behavior.

// IdleRound is one round of a system's periodic idle cycle: the energy
// spent (switched-on stations), whether the round is a heard
// control-only ("light") round or silent, and the control bits such a
// light round carries.
type IdleRound struct {
	Energy   int
	Light    bool
	CtrlBits int
}

// IdleProfiler describes what a quiescent system does on the channel.
// AppendIdleCycle appends one full period of idle rounds, starting at
// round from (the first round the simulator would tick), and returns
// the extended buffer. Returning the buffer unchanged declines the
// profile — the system cannot fast-forward from its current state. The
// profile must be exact: round from+j behaves as entry j mod period
// for as long as the system stays quiescent (up to any IdleHorizon).
type IdleProfiler interface {
	AppendIdleCycle(from int64, buf []IdleRound) []IdleRound
}

// IdleProfileFunc adapts a function to an IdleProfiler.
type IdleProfileFunc func(from int64, buf []IdleRound) []IdleRound

// AppendIdleCycle implements IdleProfiler.
func (f IdleProfileFunc) AppendIdleCycle(from int64, buf []IdleRound) []IdleRound {
	return f(from, buf)
}

// IdleHorizon is an optional IdleProfiler extension for profiles that
// hold only up to a known round: NextIdleBreak returns the earliest
// round >= from at which the idle cycle may stop describing the system
// (a duty-cycled wake round), or -1 when it holds indefinitely.
//
// IdleBreak(t) returns the idle round a system that is still quiescent
// plays at break round t, and true when that round is predictable; the
// simulator then ticks it in O(1) like any idle round, and the cycle
// goes on describing the rounds after it from the same anchor. The
// stations' SkipIdle replays an accepted break with the rest of the
// stretch, so it must be the round their Act/Observe would play. False
// makes the simulator wake every station and sweep the break.
type IdleHorizon interface {
	NextIdleBreak(from int64) int64
	IdleBreak(t int64) (IdleRound, bool)
}

// ConstIdle is the period-1 idle profile: every quiescent round looks
// the same. Most algorithms (a fixed-size listening set per round)
// declare one.
type ConstIdle IdleRound

// AppendIdleCycle implements IdleProfiler.
func (c ConstIdle) AppendIdleCycle(from int64, buf []IdleRound) []IdleRound {
	return append(buf, IdleRound(c))
}

// IdleConstOf reports the single idle round of a period-1 constant
// profile, and whether p is one.
func IdleConstOf(p IdleProfiler) (IdleRound, bool) {
	c, ok := p.(ConstIdle)
	return IdleRound(c), ok
}

// EventSkipper is the adversary-side skip contract. NextEventRound
// returns a lower bound on the earliest round >= from at which the
// adversary may produce an injection (-1: never again) — it may be
// early (the simulator wakes, finds nothing, and re-enters quiescence)
// but must never be late. SkipIdle(from, to) advances internal state
// (leaky-bucket credit) exactly as to-from zero-injection rounds
// would; the skipped rounds are proven draw-free, so no RNG advances.
type EventSkipper interface {
	NextEventRound(from int64) int64
	SkipIdle(from, to int64)
}
