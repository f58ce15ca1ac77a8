package mac

// Skipper is the opt-in quiescence contract of the fast-forward engine
// (DESIGN.md §16). A station implementing it lets the simulator replace
// provably idle rounds — every queue empty, no injection pending, no
// disruption observable — with closed-form bookkeeping.
//
// The simulator queries Quiescent only immediately after a round in
// which it observed every station queue empty; the station answers
// whether, from its current state, it will neither transmit a packet
// nor change any externally observable behavior for as long as no
// packet is injected anywhere. A station whose idle behavior is
// round-periodic (deterministic schedule cursors) answers true; one
// holding deferred work (a pending retransmission, an unfinished
// protocol phase that still transmits data) answers false.
//
// SkipIdle(from, to) must then leave the station in exactly the state
// repeated Act/Observe calls over rounds [from, to) would have — with
// the channel feedback those idle rounds produce (silence, or the
// algorithm's own periodic light messages). It is called once, at the
// first non-idle round, before the station's next Inject/Act.
type Skipper interface {
	Quiescent() bool
	SkipIdle(from, to int64)
}

// OffSkipper is the opt-in contract of the sparse sweep (DESIGN.md
// §16). A station of an energy-oblivious system that names its rounds'
// possibly-on stations (core.Awaker) implements it, so the simulator
// may leave the station alone in the rounds it is scheduled off.
//
// SkipOff(from, to) must leave the station in exactly the state
// repeated Act calls returning Off over rounds [from, to) would have,
// with no Observe (an off station hears nothing) and no Inject in
// between. An Inject at round from precedes the range, as it precedes
// that round's Act. The simulator calls it lazily, before the
// station's next Inject or Act, before it asks Quiescent, and at every
// Run boundary.
type OffSkipper interface {
	SkipOff(from, to int64)
}

// FeedbackFreeIdler marks a Skipper whose idle evolution does not
// depend on channel feedback: SkipIdle is correct even if the station
// was switched off (and so observed nothing) for the skipped rounds.
// The duty-cycle wrapper requires it — a sleeping station's inner
// protocol still Acts every round but never Observes — and a quiescent
// sim whose stations all declare it ticks a jammed or outaged round in
// O(1) instead of waking them to observe the collision.
type FeedbackFreeIdler interface {
	FeedbackFreeIdle() bool
}
