package network

import (
	"fmt"
	"math"
	"runtime"

	"earmac/internal/core"
	"earmac/internal/idring"
	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/pool"
)

// Options configures a network run. The per-channel fields mirror
// core.Options and apply to every channel's simulator.
type Options struct {
	// Strict makes per-channel model violations abort the run.
	Strict bool
	// CheckEvery enables each channel's packet-conservation checker.
	CheckEvery int64
	// ForceChecked attaches every channel's schedule-conformance scan,
	// which also keeps the quiescence engine off (see
	// core.Options.ForceChecked).
	ForceChecked bool
	// SampleEvery sets the aggregate tracker's queue-curve resolution:
	// 0 keeps the metrics.NewTracker default, a negative value disables
	// the aggregate time series entirely (the benchmark setting — curve
	// appends are the one steady-state allocation).
	SampleEvery int64
	// Workers overrides the parallelism New chooses from the network's
	// size (stepWorkers): 1 forces the serial loop, and any k > 1 steps
	// channels on min(k, C) persistent worker goroutines. Every
	// observable output — counters, per-channel trackers, traces,
	// violations — is bit-identical at any worker count (see step), so
	// Workers is a pure throughput knob. A non-nil Tracer forces 1: the
	// per-round event log interleaves channel sections through a shared
	// writer and is only deterministic when channels step in index
	// order. A parallel network owns goroutines; call Close.
	Workers int
	// TrackStations enables per-station queue peaks on every channel
	// tracker (the network-wide QueueImbalance diagnostic).
	TrackStations bool
	// Tracer, when non-nil, supplies each channel's event tracer (nil
	// returns are fine). Like core.Options.Tracer, a non-nil tracer
	// attaches that channel's validators — and forces Workers to 1, so
	// tracers sharing one writer interleave deterministically:
	// all of round t's channel-0 lines before its channel-1 lines.
	Tracer func(ch int) core.Tracer
	// Disruptor, when non-nil, supplies the jammed channels each round
	// (a live Jammer, or a JamReplay during trace replay). It is
	// consulted serially in step's phase 1, so the per-channel disrupt
	// flags are computed before any worker runs.
	Disruptor Disruptor
	// Outages, when non-nil, is the validated channel-dead schedule. A
	// channel in outage resolves every round as disrupted (nothing
	// delivered) and relay hand-offs destined for it park in a held
	// queue at the network layer until the window ends.
	Outages *OutageSchedule
	// Events, when non-nil, is the trace recording hook: after each
	// round's barrier it receives, channel by channel in ascending
	// order, the channel's adversarial entry injections and its
	// jam/outage/sleep events (see EventSink). Entries are buffered per
	// channel while the round executes, so the recorded stream is
	// identical at any worker count. Relay arrivals are not reported:
	// they are derived state, reproduced by routing during replay.
	Events EventSink
	// Sleepers, when non-nil, reports channel ch's current count of
	// duty-cycled stations that suppressed their action this round
	// (duty.Group.Asleep). Consulted in the fold, after every station
	// has acted, to drive Events.Sleep transitions.
	Sleepers func(ch int) int
	// NoSkip disables the quiescence fast-forward engine — per-channel
	// O(1) idle ticks, lazy channels and network spans — and the sparse
	// sweep, so every channel round visits every station (DESIGN.md
	// §16). The escape hatch for A/B timing comparisons — both are
	// bit-identical, so results never depend on it.
	NoSkip bool
}

// pending is one relayed packet waiting to enter its next channel.
type pending struct {
	station int // arrival gateway, local to the next channel
	dest    int // within-channel destination, local to the next channel
	meta    netPacket
}

// handoff is one relay hand-off parked in a channel's outbox: a pending
// arrival tagged with the channel it enters next round.
type handoff struct {
	next int
	p    pending
}

// netPacket is the network-level identity of an in-flight packet:
// everything needed to route it onward and to account its end-to-end
// latency. Channel sims know nothing of it — they see ordinary local
// packets — so each channel keeps an idring.Ring from the local packet
// ids its sim assigns (mirrored via emission order: the k-th injection
// the sim consumes gets id k, exactly the k-th Push) to metas.
type netPacket struct {
	origin  int64 // round the packet entered the network
	destCh  int   // final channel
	destLoc int   // final station, local to destCh
}

// chanState bundles everything one channel's step touches: its sim and
// tracker, its relay buffers, its packet-id mirror, and the per-round
// accumulators the deterministic fold consumes. During a round each
// chanState is written only by the worker that owns the channel; the
// fold reads them after the barrier, so no field needs locking.
type chanState struct {
	sim *core.Sim
	trk *metrics.Tracker

	feed feed // the sim's adversary: entry injections, then relay arrivals

	// entries is this round's raw entry stream (global coordinates),
	// buffered for the post-barrier Events flush. Reused every round.
	entries []core.Injection
	// arriving holds the relay arrivals injected this round (filled by
	// the hand-off merge, drained by the feed). outbox collects this
	// round's onward deliveries, merged into the destinations' arriving
	// buffers at the next round's hand-off.
	arriving []pending
	outbox   []handoff

	meta idring.Ring[netPacket]

	// held parks relay arrivals destined for this channel while it is
	// in outage; they drain into arriving (FIFO, ahead of new
	// hand-offs) on the first round the channel is back.
	held []pending

	// Per-round disruption state, written serially in step's phase 1
	// before dispatch and read by this channel's sim (the chanState is
	// its core.Disruption) and by the fold's event emission.
	disrupt    core.Disrupt
	outStart   bool  // this round opens an outage window
	outDur     int64 // window length when outStart
	lastAsleep int   // last sleep count emitted (transition dedup)

	relayed    int64 // deliveries forwarded onward, cumulative
	prevEnergy int64 // tracker energy already folded into the aggregate

	// Lazy stepping (skip.go): after an executed round that leaves the
	// sim quiescent on a constant idle profile with no packet
	// registered, wakeAt is the sim's span horizon (0 while the channel
	// is busy) and idleE its idle energy. Until wakeAt the channel is
	// skipped on every round that brings it no relay arrival and no
	// disruption; skipped marks this round's skip for the fold.
	wakeAt  int64
	idleE   int
	skipped bool

	// Per-round accumulators, reset by stepChannel and folded into the
	// aggregate tracker in ascending channel order after the barrier.
	admitted   int64    // in-range entry injections this round
	deliv      []int64  // end-to-end latencies completed this round
	violations []string // entry violations this round
	err        error
}

// Network composes one core.Sim per channel into a synchronous network:
// lockstep rounds, per-channel adversarial entry, relay queues between
// adjacent channels, and deterministic aggregate metrics.
//
// Aggregate semantics: Injected, Delivered, and the latency figures are
// *end-to-end* (a packet counts once, when it reaches its final
// station, with latency measured from network entry); queue and energy
// figures are network totals per round (relayed packets in flight
// between two channels count toward the queue); the channel-utilization
// counters (heard/silent/collision/light/delivery rounds, control bits)
// are sums over channels. Per-channel trackers additionally expose each
// channel's own counters, where Injected includes relay arrivals and
// latency is per-hop.
//
// All outputs are bit-identical at any worker count; DESIGN.md §13
// states the argument. Networks stepped by more than one worker
// (Workers) own worker goroutines — call Close when done.
type Network struct {
	topo  *Topology
	chans []*chanState
	opt   Options

	agg           *metrics.Tracker
	round         int64
	relayInFlight int64 // packets parked in outboxes or held behind outages
	jamBuf        []int // Disruptor scratch, reused every round

	team *pool.Team
}

// New assembles a network. build constructs channel c's system (every
// channel runs its own replica set of topo.StationsPerChannel()
// stations); entry must hold one adversary per channel, entry[c]
// injecting in global coordinates from channel c's stations. Each is
// called only from its own channel's step, so on a parallel network
// distinct channels' adversaries run concurrently and must share no
// mutable state — NewAdversary's and NewReplaySource's do not.
func New(topo *Topology, build func(ch int) (*core.System, error), entry []core.Adversary, opt Options) (*Network, error) {
	C := topo.Channels()
	if len(entry) != C {
		return nil, fmt.Errorf("network: %d entry adversaries for %d channels", len(entry), C)
	}
	n := &Network{
		topo:  topo,
		chans: make([]*chanState, C),
		opt:   opt,
		agg:   metrics.NewTracker(),
	}
	switch {
	case opt.SampleEvery < 0:
		n.agg.SampleEvery = 0
	case opt.SampleEvery > n.agg.SampleEvery:
		n.agg.SampleEvery = opt.SampleEvery
	}
	for c := 0; c < C; c++ {
		sys, err := build(c)
		if err != nil {
			return nil, fmt.Errorf("network: building channel %d: %w", c, err)
		}
		if sys.N() != topo.StationsPerChannel() {
			return nil, fmt.Errorf("network: channel %d has %d stations, topology says %d",
				c, sys.N(), topo.StationsPerChannel())
		}
		tr := metrics.NewTracker()
		tr.SampleEvery = 0 // the aggregate tracker owns the time series
		if opt.TrackStations {
			tr.TrackStations(sys.N())
		}
		cs := &chanState{trk: tr}
		cs.feed = feed{net: n, cs: cs, ch: c, adv: entry[c]}
		cs.feed.skip, _ = entry[c].(core.EventSkipper)
		n.chans[c] = cs
		var tracer core.Tracer
		if opt.Tracer != nil {
			tracer = opt.Tracer(c)
		}
		ch := c
		copts := core.Options{
			Strict:       opt.Strict,
			CheckEvery:   opt.CheckEvery,
			ForceChecked: opt.ForceChecked,
			Tracer:       tracer,
			Tracker:      tr,
			// Sleep-event emission reads duty.Group.Asleep every round;
			// quiescent ticks advance duty state lazily, so that pairing
			// pins the channel to the classic per-round loop.
			NoSkip:       opt.NoSkip || (opt.Events != nil && opt.Sleepers != nil),
			ExitObserver: func(round int64, p mac.Packet, delivered bool) { n.onExit(cs, ch, round, p, delivered) },
		}
		if opt.Disruptor != nil || opt.Outages != nil {
			copts.Disruption = cs
		}
		cs.sim = core.NewSim(sys, &cs.feed, copts)
	}
	workers := stepWorkers(opt.Workers, topo.StationsPerChannel(), C, runtime.GOMAXPROCS(0), opt.Tracer != nil)
	n.team = pool.NewTeam(C, workers, n.stepChannel)
	return n, nil
}

// teamCrossover is the stations-per-channel count from which the worker
// team steps a network faster than the serial loop (README "Network
// performance" has the measurements). It was measured at GOMAXPROCS 2
// only; a wider team may pay from fewer stations, which is unmeasured.
const teamCrossover = 128

// stepWorkers resolves the worker count of a network of channels
// channels with stationsPerChannel stations each on procs cores: a
// request (> 0) up to one worker per channel, else serial below
// teamCrossover and min(procs, channels) from it; 1 whenever traced.
func stepWorkers(requested, stationsPerChannel, channels, procs int, traced bool) int {
	switch {
	case traced:
		return 1
	case requested > 0:
		return min(requested, channels)
	case stationsPerChannel < teamCrossover:
		return 1
	default:
		return min(procs, channels)
	}
}

// Workers returns the resolved channel-stepping worker count.
func (n *Network) Workers() int { return n.team.Workers() }

// Close releases the worker goroutines behind parallel stepping. It is
// idempotent and cheap; a serial network (Workers() == 1) owns no
// goroutines, but calling Close is always correct. The Network must not
// be stepped after Close.
func (n *Network) Close() {
	if n != nil {
		n.team.Close()
	}
}

// feed is channel ch's core.Adversary: it pulls the channel's entry
// injections from the channel's entry adversary, buffers them for the
// post-barrier Events flush, and routes them into local coordinates;
// then it appends the round's relay arrivals, already local. The sim
// numbers packets in that order, and the mirror pushes follow it.
type feed struct {
	net  *Network
	cs   *chanState
	ch   int
	adv  core.Adversary
	skip core.EventSkipper // adv's skip contract, nil when it has none
}

// InjectAppend implements core.Adversary.
//
//earmac:hotpath
func (f *feed) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	cs := f.cs
	cs.entries = f.adv.InjectAppend(round, cs.entries[:0])
	for _, in := range cs.entries {
		buf = f.net.admit(round, f.ch, cs, in, buf)
	}
	for _, p := range cs.arriving {
		buf = append(buf, core.Injection{Station: p.station, Dest: p.dest})
		cs.meta.Push(p.meta)
	}
	return buf
}

// Disrupt implements core.Disruption: the channel's flags, computed
// serially in step's phase 1 before dispatch.
func (cs *chanState) Disrupt(int64) core.Disrupt { return cs.disrupt }

// NextDisrupt implements core.Disruption. A channel sim never spans by
// itself, because the network only Steps it, so the horizon is from;
// the network bounds its own spans by the jam and outage sources.
func (cs *chanState) NextDisrupt(from int64) int64 { return from }

// admit validates one global entry injection for channel ch, translates
// it into the channel's local coordinates, registers its network
// identity, and appends the local injection. Invalid entries (possible
// only via hand-edited replay traces) are buffered as violations on the
// channel — folded into the aggregate tracker after the barrier — and
// skipped before the channel sim sees them, so local packet-id
// mirroring stays in sync.
func (n *Network) admit(round int64, ch int, cs *chanState, in core.Injection, buf []core.Injection) []core.Injection {
	total := n.topo.Stations()
	if in.Station < 0 || in.Station >= total || in.Dest < 0 || in.Dest >= total ||
		n.topo.ChannelOf(in.Station) != ch {
		cs.violations = append(cs.violations,
			//earmac:alloc -- violation path: only hand-edited replay traces reach it, never a live adversary
			fmt.Sprintf("round %d channel %d: entry injection out of range: %+v", round, ch, in))
		return buf
	}
	destCh := n.topo.ChannelOf(in.Dest)
	m := netPacket{origin: round, destCh: destCh, destLoc: n.topo.Local(in.Dest)}
	var dest int
	if destCh == ch {
		dest = m.destLoc
	} else {
		dest = n.topo.Gateway(ch, n.topo.NextHop(ch, destCh))
	}
	cs.meta.Push(m)
	cs.admitted++
	return append(buf, core.Injection{Station: n.topo.Local(in.Station), Dest: dest})
}

// onExit is channel ch's ExitObserver. A packet leaving the channel
// gives back its mirror-table slot, delivered or not, or the arena
// would leak one live entry per exit. A packet dropped mid-route (its
// duty-cycled destination, final station or relay gateway, was off on
// an uncontended heard round) needs nothing more: the channel tracker
// counted the drop, and the aggregate fold sums those counts end-to-end
// (a packet dies at most once, so the sum is exact). A delivery either
// completes the packet's journey (buffered for the post-barrier latency
// fold) or parks it in the channel's outbox, tagged with the next
// channel on its path, to arrive there next round.
//
//earmac:hotpath
func (n *Network) onExit(cs *chanState, ch int, round int64, p mac.Packet, delivered bool) {
	m, ok := cs.meta.Take(p.ID)
	if !ok {
		panic(fmt.Sprintf("network: channel %d: unregistered packet %v left the channel", ch, p))
	}
	if !delivered {
		return
	}
	if m.destCh == ch {
		cs.deliv = append(cs.deliv, round-m.origin)
		return
	}
	next := n.topo.NextHop(ch, m.destCh)
	var dest int
	if next == m.destCh {
		dest = m.destLoc
	} else {
		dest = n.topo.Gateway(next, n.topo.NextHop(next, m.destCh))
	}
	cs.outbox = append(cs.outbox, handoff{next: next, p: pending{
		station: n.topo.Gateway(next, ch),
		dest:    dest,
		meta:    m,
	}})
	cs.relayed++
}

// stepChannel advances one channel by one round: the worker-team body.
// It touches only chanState c (plus the immutable topology and channel
// c's own entry adversary), so channels step concurrently without
// locks; everything the fold needs is parked in the chanState. A lazy
// channel (see chanState.wakeAt) that nothing reaches this round is
// skipped: its sim falls behind the network clock and catches up in
// closed form before the next round it executes.
//
//earmac:hotpath
func (n *Network) stepChannel(c int) {
	cs := n.chans[c]
	cs.admitted = 0
	cs.deliv = cs.deliv[:0]
	t := n.round
	cs.skipped = false
	if cs.wakeAt != 0 {
		if t < cs.wakeAt && cs.disrupt == 0 && len(cs.arriving) == 0 {
			cs.skipped = true
			cs.entries = cs.entries[:0] // nothing for the Events flush
			return
		}
		cs.catchUp(t)
		cs.wakeAt = 0
	}
	cs.err = cs.sim.Step()
	if e, ok := cs.sim.QuiescentConst(); ok && cs.meta.Live() == 0 {
		if w := cs.sim.SpanHorizon(t+1, math.MaxInt64); w > t+1 {
			cs.wakeAt, cs.idleE = w, e.Energy
		}
	}
}

// step advances every channel by one lockstep round.
//
// The round has three phases. (1) Relay hand-off: the previous round's
// outboxes are merged into the destination channels' arriving buffers
// in ascending source-channel order — exactly the order the serial loop
// produced them in — so arrival order never depends on scheduling.
// (2) Channel stepping: every channel's sim advances one round on the
// worker team (Workers), or is skipped when lazy; the only
// cross-channel data are the immutable topology and the per-channel
// buffers merged in phase 1, so workers never contend. (3)
// Deterministic fold: after the barrier, per-channel accumulators
// (entry admissions, end-to-end completions, violations, entry buffers,
// queue/energy totals) are folded into the aggregate tracker in
// ascending channel order. Phases 1 and 3 iterate channels identically
// at any worker count, which is why every output is bit-identical to
// the serial loop's.
//
//earmac:hotpath
func (n *Network) step() error {
	// (1) Disruption flags for the round, computed serially so every
	// channel's sim sees its flags before dispatch, then the relay
	// hand-off: last round's deliveries become this round's arrivals.
	chans := n.chans
	if n.opt.Disruptor != nil || n.opt.Outages != nil {
		for _, cs := range chans {
			cs.disrupt, cs.outStart, cs.outDur = 0, false, 0
		}
		if n.opt.Disruptor != nil {
			n.jamBuf = n.opt.Disruptor.AppendJams(n.round, n.jamBuf[:0])
			for _, c := range n.jamBuf {
				if c < 0 || c >= len(chans) {
					n.agg.Violate("round %d: jam on invalid channel %d", n.round, c)
					continue
				}
				chans[c].disrupt |= core.DisruptJam
			}
		}
		if n.opt.Outages != nil {
			for c, cs := range chans {
				active, starts, dur := n.opt.Outages.Active(c, n.round)
				if active {
					cs.disrupt |= core.DisruptOutage
				}
				cs.outStart, cs.outDur = starts, dur
			}
		}
	}
	for _, cs := range chans {
		cs.arriving = cs.arriving[:0]
		// A channel back from outage drains its held relay arrivals
		// first (FIFO across the window), ahead of new hand-offs.
		if cs.disrupt&core.DisruptOutage == 0 && len(cs.held) > 0 {
			cs.arriving = append(cs.arriving, cs.held...)
			cs.held = cs.held[:0]
		}
	}
	for _, cs := range chans {
		for _, h := range cs.outbox {
			dst := chans[h.next]
			if dst.disrupt&core.DisruptOutage != 0 {
				dst.held = append(dst.held, h.p)
			} else {
				dst.arriving = append(dst.arriving, h.p)
			}
		}
		cs.outbox = cs.outbox[:0]
	}

	// (2) One lockstep round across the worker team.
	n.team.Dispatch()

	// (3) Fold, ascending channel order throughout. Entries and
	// disruption/sleep events interleave per channel so a trace encoder
	// sees strictly increasing (round, channel, kind).
	if ev := n.opt.Events; ev != nil {
		for c, cs := range chans {
			if len(cs.entries) > 0 {
				ev.ChannelRound(n.round, c, cs.entries)
			}
			if cs.disrupt&core.DisruptJam != 0 {
				ev.Jam(n.round, c)
			}
			if cs.outStart {
				ev.Outage(n.round, c, cs.outDur)
			}
			if n.opt.Sleepers != nil {
				if v := n.opt.Sleepers(c); v != cs.lastAsleep {
					ev.Sleep(n.round, c, v)
					cs.lastAsleep = v
				}
			}
		}
	}
	for c, cs := range chans {
		if cs.err != nil {
			//earmac:alloc -- error propagation: a channel error aborts the run
			return fmt.Errorf("channel %d: %w", c, cs.err)
		}
	}
	var totalQueue, inFlight int64
	totalEnergy := 0
	for _, cs := range chans {
		if cs.admitted > 0 {
			n.agg.ObserveInjections(int(cs.admitted))
		}
		for _, lat := range cs.deliv {
			n.agg.ObserveDelivery(lat)
		}
		if len(cs.violations) > 0 {
			for _, v := range cs.violations {
				n.agg.Violate("%s", v)
			}
			cs.violations = cs.violations[:0]
		}
		if cs.skipped {
			totalEnergy += cs.idleE // an empty idle round
		} else {
			totalQueue += cs.trk.FinalQueue
			totalEnergy += int(cs.trk.EnergySum - cs.prevEnergy)
			cs.prevEnergy = cs.trk.EnergySum
		}
		// Relayed packets between channels, plus any parked behind an
		// outage window.
		inFlight += int64(len(cs.outbox) + len(cs.held))
	}
	n.relayInFlight = inFlight
	n.agg.ObserveRound(n.round, totalQueue+inFlight, totalEnergy)
	n.round++
	return nil
}

// Run executes the given number of rounds. Between rounds it attempts
// the network-level span skip (see trySpan); at exit it settles every
// channel, so trackers and station state are exact at the Run boundary
// — read them only between Runs.
func (n *Network) Run(rounds int64) error {
	end := n.round + rounds
	for n.round < end {
		if err := n.step(); err != nil {
			return err
		}
		n.trySpan(end)
	}
	n.settle()
	return nil
}

// Topology returns the compiled topology.
func (n *Network) Topology() *Topology { return n.topo }

// Tracker returns the aggregate tracker with the channel-summed
// utilization counters synchronized, ready for report assembly or a
// trace footer. The end-to-end fields (Injected, Delivered, latency,
// queue, energy, Rounds) are maintained live; the utilization sums are
// folded in here because they are pure functions of the per-channel
// counters. Call between Runs.
func (n *Network) Tracker() *metrics.Tracker {
	a := &n.agg.Counters
	a.HeardRounds, a.SilentRounds, a.CollisionRounds = 0, 0, 0
	a.LightRounds, a.DeliveryRounds, a.ControlBits = 0, 0, 0
	a.JammedRounds, a.OutageRounds, a.Dropped = 0, 0, 0
	for _, cs := range n.chans {
		a.HeardRounds += cs.trk.HeardRounds
		a.SilentRounds += cs.trk.SilentRounds
		a.CollisionRounds += cs.trk.CollisionRounds
		a.LightRounds += cs.trk.LightRounds
		a.DeliveryRounds += cs.trk.DeliveryRounds
		a.ControlBits += cs.trk.ControlBits
		a.JammedRounds += cs.trk.JammedRounds
		a.OutageRounds += cs.trk.OutageRounds
		// A packet dies at most once, so summing per-channel drops is
		// the exact end-to-end count.
		a.Dropped += cs.trk.Dropped
	}
	return n.agg
}

// ChannelTracker returns channel ch's own tracker (hop-level counters).
// Call between Runs: a lazy channel's tracker is exact once Run settles.
func (n *Network) ChannelTracker(ch int) *metrics.Tracker { return n.chans[ch].trk }

// Relayed returns how many deliveries channel ch forwarded onward.
func (n *Network) Relayed(ch int) int64 { return n.chans[ch].relayed }

// InFlight returns the number of packets currently inside the network:
// registered with some channel or parked in a relay hand-off between
// two channels. Maintained counters — no per-packet walk.
func (n *Network) InFlight() int {
	total := int(n.relayInFlight)
	for _, cs := range n.chans {
		total += cs.meta.Live()
	}
	return total
}

// QueueImbalance is the network-wide fairness diagnostic: the largest
// per-station queue peak across all channels relative to the mean peak
// (0 unless Options.TrackStations was set).
func (n *Network) QueueImbalance() float64 {
	peaks := make([][]int64, len(n.chans))
	for c, cs := range n.chans {
		peaks[c] = cs.trk.StationMaxQueues()
	}
	return metrics.QueueImbalance(peaks...)
}

// Violations collects every channel's model violations (prefixed with
// the channel id) after the aggregate tracker's own. Entry violations
// land on the aggregate tracker in (round, channel) order regardless of
// worker count — the fold appends them in ascending channel order.
func (n *Network) Violations() []string {
	var out []string
	out = append(out, n.agg.Violations...)
	for c, cs := range n.chans {
		for _, v := range cs.trk.Violations {
			out = append(out, fmt.Sprintf("channel %d: %s", c, v))
		}
	}
	return out
}
