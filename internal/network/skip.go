package network

// Network-level quiescence fast-forward (DESIGN.md §16). Channel sims
// run their own O(1) quiescent ticks but never span by themselves: the
// network only Steps them, one round at a time. On top of that a
// channel goes lazy
// after a round it executes that leaves its sim quiescent on a constant
// idle profile with no packet registered: until its sim's span horizon
// (chanState.wakeAt) it is skipped on every round that brings it no
// relay arrival and no disruption, and the fold counts its constant
// idle energy. Before its next executed round, and when Run settles, it
// catches up in one closed-form core.Sim.SkipSpan. When every channel
// is lazy and nothing is in flight, Run skips whole network spans.

// NextEventRound implements core.EventSkipper for a channel's feed:
// the entry adversary's horizon when it has one, else the queried round
// itself (so the channel never goes lazy). Relay arrivals are outside
// it: the network wakes a lazy channel on any arrival (stepChannel).
func (f *feed) NextEventRound(from int64) int64 {
	if f.skip != nil {
		return f.skip.NextEventRound(from)
	}
	return from
}

// SkipIdle implements core.EventSkipper: invoked by the channel sim's
// SkipSpan when a lazy channel catches up, which happens only for
// channels whose entry adversary has a skip contract.
func (f *feed) SkipIdle(from, to int64) {
	if f.skip != nil {
		f.skip.SkipIdle(from, to)
	}
}

// catchUp accrues the idle rounds a lazy channel skipped, up to round,
// into its sim and tracker in closed form. The fold already counted
// their energy, so prevEnergy moves past it.
//
//earmac:hotpath
func (cs *chanState) catchUp(round int64) {
	if cs.sim.Round() < round {
		cs.sim.SkipSpan(round)
		cs.prevEnergy = cs.trk.EnergySum
	}
}

// trySpan attempts a network span starting at n.round, bounded by end.
// A span requires every channel lazy up to its end (so no channel holds
// a packet or can see an entry), no relay in flight (outboxes, outage
// holds), and no jam or outage inside it. It moves only the network
// clock and the aggregate tracker, which accrues the channels' constant
// idle energy in closed form; the channels stay lazy and catch up when
// they next execute a round or Run settles. Anything unprovable just
// returns, and the Run loop steps the next round.
//
//earmac:hotpath
func (n *Network) trySpan(end int64) {
	if n.relayInFlight != 0 {
		return
	}
	from, to := n.round, end
	if n.opt.Disruptor != nil {
		if nj := n.opt.Disruptor.NextJamRound(from); nj >= 0 && nj < to {
			to = nj
		}
	}
	totalE := 0
	for c, cs := range n.chans {
		if cs.wakeAt <= from {
			return
		}
		to = min(to, cs.wakeAt)
		if n.opt.Outages != nil {
			if nd := n.opt.Outages.NextDisrupted(c, from); nd >= 0 && nd < to {
				to = nd
			}
		}
		totalE += cs.idleE
	}
	if to <= from+1 {
		return
	}
	m := to - from
	n.agg.ObserveQuietSpan(from, m, m*int64(totalE), totalE)
	n.round = to
}

// settle catches every lazy channel up to the network clock and replays
// skipped idle rounds into every channel's stations, so trackers and
// externally visible station state (queue snapshots, duty-cycle sleep
// totals) are exact at Run boundaries.
func (n *Network) settle() {
	for _, cs := range n.chans {
		cs.catchUp(n.round)
		cs.sim.Settle()
	}
}
