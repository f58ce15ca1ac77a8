package network

// Network-level quiescence fast-forward (DESIGN.md §16). Channel sims
// run their own O(1) quiescent ticks inside stepChannel — their relay
// feed pins single-channel spans by design — and the network skips
// whole spans itself, from Run, when it can prove the span free of
// entries, relays, and disruption on every channel at once.

// JamHorizon is the optional Disruptor extension for jam streams with a
// computable next jam round (-1: none remains). A replayed stream
// (JamReplay) knows its future; a live Jammer spends budget through a
// seeded shuffle every round and does not implement it, which pins
// network spans — quiescent ticks stay exact regardless, because
// AppendJams runs for every ticked round.
type JamHorizon interface {
	NextJamRound(from int64) int64
}

// NextEventRound implements core.EventSkipper for a channel's entry
// feed: the entry adversary's horizon when it has one, else the queried
// round itself (pinning the channel's span horizon).
func (f *feed) NextEventRound(from int64) int64 {
	if f.skip != nil {
		return f.skip.NextEventRound(from)
	}
	return from
}

// SkipIdle implements core.EventSkipper: invoked by the channel sim's
// SkipSpan during a network-level span skip, which runs only when every
// channel's entry adversary has a skip contract.
func (f *feed) SkipIdle(from, to int64) {
	if f.skip != nil {
		f.skip.SkipIdle(from, to)
	}
}

// trySpan attempts a network-level span skip starting at n.round,
// bounded by end. A span requires: the escape hatch off and a
// horizon-capable entry adversary on every channel; no packet in
// flight anywhere (relay outboxes, outage holds, or registered with a
// channel sim); every channel quiescent on a constant idle profile; and
// jam/outage horizons covering the span. Each channel accrues its own
// counters via core.SkipSpan; the aggregate accrues the constant
// per-round totals in closed form. Anything unprovable just returns —
// the Run loop degrades to per-round stepping with per-channel O(1)
// ticks.
//
//earmac:hotpath
func (n *Network) trySpan(end int64) {
	if n.opt.NoSkip || !n.entryHorizon || n.relayInFlight != 0 {
		return
	}
	from := n.round
	to := end
	if n.opt.Disruptor != nil {
		jh, ok := n.opt.Disruptor.(JamHorizon)
		if !ok {
			return
		}
		if nj := jh.NextJamRound(from); nj >= 0 && nj < to {
			to = nj
		}
	}
	totalE := 0
	for c, cs := range n.chans {
		e, ok := cs.sim.QuiescentConst()
		if !ok || cs.meta.Live() != 0 {
			return
		}
		if n.opt.Outages != nil {
			if nd := n.opt.Outages.NextDisrupted(c, from); nd >= 0 && nd < to {
				to = nd
			}
		}
		to = cs.sim.SpanHorizon(from, to)
		totalE += e.Energy
	}
	if to <= from+1 {
		return
	}
	m := to - from
	for _, cs := range n.chans {
		cs.sim.SkipSpan(to)
		cs.prevEnergy = cs.trk.EnergySum
	}
	n.agg.ObserveQuietSpan(from, m, m*int64(totalE), totalE)
	n.round = to
}

// settle replays lazily skipped idle rounds into every channel's
// stations, so externally visible station state (queue snapshots,
// duty-cycle sleep totals) is exact at Run boundaries.
func (n *Network) settle() {
	for _, cs := range n.chans {
		cs.sim.Settle()
	}
}
