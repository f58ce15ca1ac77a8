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
// first non-idle round, before the station's next Inject/Act. A system
// whose stations' SkipIdle ignores that feedback declares it once
// (core.System.FeedbackFreeIdle).
type Skipper interface {
	Quiescent() bool
	SkipIdle(from, to int64)
}
