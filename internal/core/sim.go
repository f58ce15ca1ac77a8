package core

import (
	"fmt"

	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// Options configures a simulation run.
type Options struct {
	// Strict makes model violations return errors instead of only being
	// recorded in the tracker. Tests run strict; long benchmarks may not.
	Strict bool
	// CheckEvery enables the packet-conservation invariant check every so
	// many rounds (0 disables). Checking requires all stations to
	// implement PacketHolder. The bookkeeping costs O(1) per injection
	// and delivery; a check costs O(window + held), where the window is
	// at most twice the widest span of in-flight packet IDs, and
	// allocates nothing in steady state.
	CheckEvery int64
	// Tracker receives statistics; a fresh one is created when nil.
	Tracker *metrics.Tracker
	// Tracer, when non-nil, receives a full view of every round.
	Tracer Tracer
	// InjectionObserver, when non-nil, receives every round's injections
	// right after the adversary produces them (before range validation),
	// on both the fast and checked paths — the hook the trace recorder
	// (internal/scenario) captures replayable runs with. The slice is
	// reused between rounds and must not be retained. Unlike Tracer it
	// does not force the checked path. Externally-sourced injections
	// (ExtraInjections) are NOT reported: they are derived state, fully
	// reproducible from the recorded adversarial stream.
	InjectionObserver func(round int64, injs []Injection)
	// ExtraInjections, when non-nil, supplies externally-sourced
	// injections — relay arrivals from a surrounding topology layer
	// (internal/network) — appended after the adversary's injections
	// each round. It reuses the InjectAppender buffer contract, so the
	// steady-state round loop stays allocation-free; when nil (every
	// single-channel run) the hook costs one pointer comparison.
	ExtraInjections InjectAppender
	// DeliveryObserver, when non-nil, receives every delivered packet on
	// both simulator paths, in the round it was delivered. It is the
	// hook relay layers intercept deliveries with; like
	// InjectionObserver it does not force the checked path.
	DeliveryObserver func(round int64, p mac.Packet)
	// ForceChecked keeps the fully-validating round loop even when the
	// fast path would apply (see Sim.FastPath). Used by the equivalence
	// tests; never needed in normal operation.
	ForceChecked bool
	// Disrupted, when non-nil, is consulted exactly once per round on
	// both paths — after injections and actions, before channel
	// resolution — and returns the round's disruption flags. A disrupted
	// round delivers nothing: every switched-on station observes
	// FbCollision regardless of how many stations transmitted (jamming
	// noise and a dead channel are indistinguishable from a collision at
	// the receivers), stations still spend their energy, and the tracker
	// counts the round as a collision plus the matching Jammed/Outaged
	// counter. The hook runs on the fast path too, so it must not
	// allocate in steady state.
	Disrupted func(round int64) Disrupt
	// DropObserver, when non-nil, receives every packet that dies
	// mid-route: a heard round whose destination station is switched off
	// under a direct algorithm (see Counters.Dropped for the exact
	// semantics). Topology layers use it to reclaim per-packet relay
	// state; like DeliveryObserver it runs on both paths.
	DropObserver func(round int64, p mac.Packet)
	// RoundEnd, when non-nil, runs at the very end of every round on
	// both paths, after all statistics for the round are folded. It is
	// the hook duty-cycle recorders use to observe per-round sleep
	// state at a point where every station has acted. Because it
	// observes every round, it disables the quiescence fast-forward
	// engine entirely.
	RoundEnd func(round int64)
	// NoSkip disables the quiescence fast-forward engine (quiesce.go)
	// even when the system declares an idle profile, forcing the
	// classic per-round loop. The engine is bit-identical by
	// construction; the flag exists as an escape hatch and for the
	// equivalence tests.
	NoSkip bool
	// DisruptHorizon, when non-nil alongside Disrupted, returns a
	// lower bound on the earliest round >= from whose Disrupted
	// consult may return nonzero (-1: never). It gates the span-skip
	// tier: a Disrupted hook without a horizon pins spans, because the
	// hook may have per-round side effects the engine cannot replay
	// (quiescent ticks still consult it every round).
	DisruptHorizon func(from int64) int64
}

// Disrupt is a bit set of reasons a round was externally disrupted.
type Disrupt uint8

const (
	// DisruptJam marks a round jammed by a budgeted jamming adversary.
	DisruptJam Disrupt = 1 << iota
	// DisruptOutage marks a round inside a channel outage window.
	DisruptOutage
)

// Sim drives one system against one adversary.
//
// At construction the simulator selects one of two round loops:
//
//   - The checked path runs every model validation the paper states —
//     per-round schedule conformance, conservation tracking, tracing.
//     It is selected in strict mode, when a Tracer is attached, or when
//     conservation checking (Options.CheckEvery) is on.
//   - The fast path is the steady-state loop used by benchmarks and
//     sweeps: no tracer, no conservation bookkeeping, no per-round
//     schedule scan, and no allocation — injections land in a reused
//     scratch buffer (see InjectAppender) and all statistics go to the
//     tracker's flat counters. Cheap validations (energy cap, the
//     transmit-while-off and plain-packet disciplines, injection ranges)
//     still run, so the tracker totals match the checked path exactly
//     for any well-behaved system; only schedule-conformance violations
//     would go unnoticed.
type Sim struct {
	sys     *System
	adv     Adversary
	opt     Options
	tracker *metrics.Tracker
	fast    bool

	// Adversary capabilities, resolved once so the round loop performs no
	// per-round type assertions.
	advAppend InjectAppender
	roundObs  RoundObserver
	queueObs  QueueObserver
	fbObs     FeedbackObserver
	injObs    func(round int64, injs []Injection)
	extInj    InjectAppender
	delObs    func(round int64, p mac.Packet)
	disrupt   func(round int64) Disrupt
	dropObs   func(round int64, p mac.Packet)
	roundEnd  func(round int64)

	round    int64
	nextID   int64
	actions  []Action
	on       []bool
	queueLen []int
	injBuf   []Injection  // reused injection scratch (fast and checked path)
	delBuf   []mac.Packet // reused delivered-packet scratch (checked path)
	// ledger tracks the in-flight packets for CheckConservation; nil
	// unless conservation checking is enabled.
	ledger *ledger

	// Quiescence fast-forward state (fast path only; see quiesce.go).
	skipOK      bool          // engine enabled for this sim
	quiescent   bool          // currently inside a quiescent stretch
	qFrom       int64         // first round the stations have not executed
	skippers    []mac.Skipper // per-station, populated only when skipOK
	advSkip     EventSkipper  // adversary skip contract, when supported
	dhor        func(from int64) int64
	idleCycle   []IdleRound // reused idle-profile buffer
	idleAnchor  int64       // round idleCycle[0] describes
	idleBreakAt int64       // profile horizon (-1: indefinite)
	prefEnergy  []int64     // prefix sums over idleCycle (span accrual)
	prefLight   []int64
	prefCtrl    []int64
	cycleMaxE   int
}

// NewSim prepares a simulation starting at round 0.
func NewSim(sys *System, adv Adversary, opt Options) *Sim {
	t := opt.Tracker
	if t == nil {
		t = metrics.NewTracker()
	}
	s := &Sim{
		sys:      sys,
		adv:      adv,
		opt:      opt,
		tracker:  t,
		actions:  make([]Action, sys.N()),
		on:       make([]bool, sys.N()),
		queueLen: make([]int, sys.N()),
	}
	if adv != nil {
		s.advAppend, _ = adv.(InjectAppender)
		s.roundObs, _ = adv.(RoundObserver)
		s.queueObs, _ = adv.(QueueObserver)
		s.fbObs, _ = adv.(FeedbackObserver)
	}
	s.injObs = opt.InjectionObserver
	s.extInj = opt.ExtraInjections
	s.delObs = opt.DeliveryObserver
	s.disrupt = opt.Disrupted
	s.dropObs = opt.DropObserver
	s.roundEnd = opt.RoundEnd
	if opt.CheckEvery > 0 {
		s.ledger = &ledger{}
	}
	s.fast = !opt.Strict && opt.CheckEvery <= 0 && opt.Tracer == nil && !opt.ForceChecked
	s.dhor = opt.DisruptHorizon
	if adv != nil {
		s.advSkip, _ = adv.(EventSkipper)
	}
	// The fast-forward engine needs an idle profile, a Skipper at every
	// station, and the absence of every per-round observer the engine
	// cannot replay: RoundEnd and the adaptive-adversary hooks see each
	// round individually, so any of them pins the loop to per-round.
	if s.fast && !opt.NoSkip && sys.Idle != nil && opt.RoundEnd == nil &&
		s.roundObs == nil && s.queueObs == nil && s.fbObs == nil {
		skippers := make([]mac.Skipper, len(sys.Stations))
		ok := true
		for i, st := range sys.Stations {
			if skippers[i], ok = st.(mac.Skipper); !ok {
				break
			}
		}
		if ok {
			s.skippers = skippers
			s.skipOK = true
		}
	}
	return s
}

// Tracker returns the statistics collector.
func (s *Sim) Tracker() *metrics.Tracker { return s.tracker }

// Round returns the number of completed rounds.
func (s *Sim) Round() int64 { return s.round }

// System returns the simulated system.
func (s *Sim) System() *System { return s.sys }

// FastPath reports whether the allocation-free steady-state loop was
// selected at construction (no strict mode, no conservation checking, no
// tracer, not forced off).
func (s *Sim) FastPath() bool { return s.fast }

// SkipCapable reports whether the quiescence fast-forward engine was
// enabled at construction: the fast path was selected, NoSkip is off,
// the system declares an idle profile, every station implements
// mac.Skipper, and no per-round observer pins the loop.
func (s *Sim) SkipCapable() bool { return s.skipOK }

func (s *Sim) violate(format string, args ...any) error {
	s.tracker.Violate(format, args...)
	if s.opt.Strict {
		return fmt.Errorf("round %d: "+format, append([]any{s.round}, args...)...)
	}
	return nil
}

// Run executes the given number of rounds. In strict mode it stops at the
// first model violation. On the fast path quiescent stretches advance by
// O(1) ticks and closed-form span skips (quiesce.go); Run settles any
// pending skip before returning, so station state is exact at the exit.
func (s *Sim) Run(rounds int64) error {
	if s.fast {
		end := s.round + rounds
		for s.round < end {
			if s.quiescent {
				s.quiescentAdvance(end)
			} else {
				s.stepFast()
			}
		}
		s.Settle()
		return nil
	}
	for i := int64(0); i < rounds; i++ {
		if err := s.stepChecked(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one round on whichever path was selected at NewSim.
func (s *Sim) Step() error {
	if s.fast {
		if s.quiescent {
			s.quiescentAdvance(s.round + 1)
		} else {
			s.stepFast()
		}
		return nil
	}
	return s.stepChecked()
}

// inject obtains this round's injections, reusing the scratch buffer when
// the adversary supports the append contract.
func (s *Sim) inject(t int64) []Injection {
	if s.advAppend != nil {
		s.injBuf = s.advAppend.InjectAppend(t, s.injBuf[:0])
		return s.injBuf
	}
	if s.adv != nil {
		return s.adv.Inject(t)
	}
	return nil
}

// gather assembles one round's full injection list: the adversary's
// injections (reported to InjectionObserver) followed by the
// externally-sourced ones (ExtraInjections; not reported — they are
// derived state, reproducible from the adversarial stream). Both paths
// call it; with no external injector it is exactly the old inject +
// observe sequence, so single-channel runs keep the same cost.
func (s *Sim) gather(t int64) []Injection {
	injs := s.inject(t)
	if s.injObs != nil && len(injs) > 0 {
		s.injObs(t, injs)
	}
	if s.extInj == nil {
		return injs
	}
	if s.advAppend == nil {
		// injs is owned by the adversary (or nil); move it into the
		// scratch buffer before appending the external stream.
		s.injBuf = append(s.injBuf[:0], injs...)
	}
	s.injBuf = s.extInj.InjectAppend(t, s.injBuf)
	return s.injBuf
}

// NextPacketID returns the ID the next accepted injection will be
// assigned. IDs are handed out sequentially, in injection order, to
// every in-range injection; topology layers use this to mirror the
// simulator's ID assignment without a per-packet callback.
func (s *Sim) NextPacketID() int64 { return s.nextID }

// stepFast is the allocation-free steady-state round loop. It performs
// the same channel resolution, delivery accounting, and cheap model
// validation as the checked path (so tracker totals agree), but skips the
// per-round schedule-conformance scan, conservation bookkeeping, and
// tracing.
//
//earmac:hotpath
func (s *Sim) stepFast() {
	t := s.round
	// 1. Adversarial injection (plus externally-sourced arrivals), and
	// the round's disruption flags. The Disrupted consult commutes with
	// the station sweep — it interacts with nothing before channel
	// resolution — so hoisting it keeps both paths bit-identical while
	// letting the quiescence engine share stepFastFrom on wake-up.
	injs := s.gather(t)
	var disrupted Disrupt
	if s.disrupt != nil {
		disrupted = s.disrupt(t)
	}
	s.stepFastFrom(t, injs, disrupted)
}

// stepFastFrom is the station sweep of one fast round: injections and
// disruption flags have already been obtained for round t. It is the
// shared tail of stepFast and the quiescence engine's wake-up path.
//
//earmac:hotpath
func (s *Sim) stepFastFrom(t int64, injs []Injection, disrupted Disrupt) {
	n := s.sys.N()
	tr := s.tracker

	for _, in := range injs {
		if in.Station < 0 || in.Station >= n || in.Dest < 0 || in.Dest >= n {
			tr.Violate("injection out of range: %+v", in)
			continue
		}
		p := mac.Packet{ID: s.nextID, Src: in.Station, Dest: in.Dest, Injected: t}
		s.nextID++
		s.sys.Stations[in.Station].Inject(p)
		tr.Injected++
	}

	// 2. Station actions. Unlike the checked path, only the transmitted
	// message is retained — there is no tracer to hand the full action
	// vector to.
	energy := 0
	transmitters := 0
	lastTx := -1
	var txMsg mac.Message
	for i, st := range s.sys.Stations {
		a := st.Act(t)
		if a.On {
			energy++
		}
		if a.Transmit {
			if !a.On {
				tr.Violate("station %d transmits while off", i)
			} else {
				transmitters++
				lastTx = i
				txMsg = a.Msg
			}
		}
		s.on[i] = a.On
	}

	// 3. Model validation (cheap checks only; the schedule-conformance
	// scan is checked-path-only).
	if energy > s.sys.Info.EnergyCap {
		tr.Violate("%d stations on exceeds energy cap %d", energy, s.sys.Info.EnergyCap)
	}
	if s.sys.Info.PlainPacket && transmitters == 1 {
		if !txMsg.HasPacket || len(txMsg.Ctrl) > 0 {
			tr.Violate("station %d violates plain-packet discipline (packet=%v, ctrl=%d bits)",
				lastTx, txMsg.HasPacket, txMsg.Ctrl.Bits())
		}
	}

	// 4. Channel resolution and ground-truth delivery. An externally
	// disrupted round (jam or outage) overrides the contention outcome:
	// nothing is delivered and every listener observes a collision.
	var fb mac.Feedback
	switch {
	case disrupted != 0:
		fb.Kind = mac.FbCollision
		tr.CollisionRounds++
		if disrupted&DisruptJam != 0 {
			tr.JammedRounds++
		}
		if disrupted&DisruptOutage != 0 {
			tr.OutageRounds++
		}
	case transmitters == 0:
		fb.Kind = mac.FbSilence
		tr.SilentRounds++
	case transmitters == 1:
		msg := txMsg
		fb = mac.Feedback{Kind: mac.FbHeard, Msg: msg}
		tr.HeardRounds++
		tr.ControlBits += int64(msg.Ctrl.Bits())
		if msg.IsLight() {
			tr.LightRounds++
		} else if s.on[msg.Packet.Dest] {
			tr.DeliveryRounds++
			tr.ObserveDelivery(t - msg.Packet.Injected)
			if s.delObs != nil {
				s.delObs(t, msg.Packet)
			}
		} else if s.sys.Info.Direct {
			// A direct algorithm's transmitter treats an uncontended
			// heard round as an acknowledgement and retires the packet,
			// but the destination was switched off (duty-cycled): the
			// packet dies mid-route.
			tr.Dropped++
			if s.dropObs != nil {
				s.dropObs(t, msg.Packet)
			}
		}
	default:
		fb.Kind = mac.FbCollision
		tr.CollisionRounds++
	}

	// 5. Feedback to switched-on stations.
	for i, st := range s.sys.Stations {
		if s.on[i] {
			st.Observe(t, fb)
		}
	}

	if s.roundObs != nil {
		s.roundObs.ObserveRound(t, s.on)
	}
	if s.fbObs != nil {
		s.fbObs.ObserveFeedback(t, fb)
	}

	var totalQueue int64
	for i, st := range s.sys.Stations {
		l := st.QueueLen()
		s.queueLen[i] = l
		totalQueue += int64(l)
	}
	if s.queueObs != nil {
		s.queueObs.ObserveQueues(t, s.queueLen)
	}
	tr.ObserveStationQueues(s.queueLen)
	tr.ObserveRound(t, totalQueue, energy)
	if s.roundEnd != nil {
		s.roundEnd(t)
	}
	s.round++
	if s.skipOK && totalQueue == 0 && !s.quiescent {
		s.tryEnterQuiescence()
	}
}

// stepChecked executes one fully-validated round.
func (s *Sim) stepChecked() error {
	n := s.sys.N()
	t := s.round

	// 1. Adversarial injection (plus externally-sourced arrivals).
	injs := s.gather(t)
	for _, in := range injs {
		if in.Station < 0 || in.Station >= n || in.Dest < 0 || in.Dest >= n {
			if err := s.violate("injection out of range: %+v", in); err != nil {
				return err
			}
			continue
		}
		p := mac.Packet{ID: s.nextID, Src: in.Station, Dest: in.Dest, Injected: t}
		s.nextID++
		if s.ledger != nil {
			s.ledger.add(p)
		}
		s.sys.Stations[in.Station].Inject(p)
		s.tracker.ObserveInjections(1)
	}

	// 2. Station actions.
	energy := 0
	transmitters := 0
	lastTx := -1
	for i, st := range s.sys.Stations {
		a := st.Act(t)
		s.actions[i] = a
		s.on[i] = a.On
		if a.On {
			energy++
		}
		if a.Transmit {
			if !a.On {
				if err := s.violate("station %d transmits while off", i); err != nil {
					return err
				}
				a.Transmit = false
				s.actions[i] = a
				continue
			}
			transmitters++
			lastTx = i
		}
	}

	// 3. Model validation.
	if energy > s.sys.Info.EnergyCap {
		if err := s.violate("%d stations on exceeds energy cap %d", energy, s.sys.Info.EnergyCap); err != nil {
			return err
		}
	}
	if s.sys.Schedule != nil {
		for i := 0; i < n; i++ {
			if s.on[i] != s.sys.Schedule.On(i, t) {
				if err := s.violate("station %d violates oblivious schedule: on=%v", i, s.on[i]); err != nil {
					return err
				}
			}
		}
	}
	if s.sys.Info.PlainPacket && transmitters == 1 {
		msg := s.actions[lastTx].Msg
		if !msg.HasPacket || len(msg.Ctrl) > 0 {
			if err := s.violate("station %d violates plain-packet discipline (packet=%v, ctrl=%d bits)",
				lastTx, msg.HasPacket, msg.Ctrl.Bits()); err != nil {
				return err
			}
		}
	}

	// 4. Channel resolution and ground-truth delivery. Disruption
	// overrides the contention outcome exactly as on the fast path.
	var disrupted Disrupt
	if s.disrupt != nil {
		disrupted = s.disrupt(t)
	}
	var fb mac.Feedback
	deliveredPkts := s.delBuf[:0]
	switch {
	case disrupted != 0:
		fb = mac.Feedback{Kind: mac.FbCollision}
		s.tracker.CollisionRounds++
		if disrupted&DisruptJam != 0 {
			s.tracker.JammedRounds++
		}
		if disrupted&DisruptOutage != 0 {
			s.tracker.OutageRounds++
		}
	case transmitters == 0:
		fb = mac.Feedback{Kind: mac.FbSilence}
		s.tracker.SilentRounds++
	case transmitters == 1:
		msg := s.actions[lastTx].Msg
		fb = mac.Feedback{Kind: mac.FbHeard, Msg: msg}
		s.tracker.HeardRounds++
		s.tracker.ControlBits += int64(msg.Ctrl.Bits())
		if msg.IsLight() {
			s.tracker.LightRounds++
		} else if s.on[msg.Packet.Dest] {
			p := msg.Packet
			s.tracker.DeliveryRounds++
			s.tracker.ObserveDelivery(t - p.Injected)
			if s.delObs != nil {
				s.delObs(t, p)
			}
			deliveredPkts = append(deliveredPkts, p)
			if s.ledger != nil {
				if s.ledger.gone(p.ID) {
					if err := s.violate("packet %v delivered twice", p); err != nil {
						return err
					}
				}
				s.ledger.retire(p.ID)
			}
		} else if s.sys.Info.Direct {
			// Mid-route death (see the fast path): the direct
			// transmitter retires the packet on an uncontended heard
			// round, but the duty-cycled destination was off. The
			// packet leaves conservation tracking as consumed — no
			// station may hold it afterwards.
			p := msg.Packet
			s.tracker.Dropped++
			if s.dropObs != nil {
				s.dropObs(t, p)
			}
			if s.ledger != nil {
				s.ledger.retire(p.ID)
			}
		}
	default:
		fb = mac.Feedback{Kind: mac.FbCollision}
		s.tracker.CollisionRounds++
	}
	s.delBuf = deliveredPkts

	// 5. Feedback to switched-on stations.
	for i, st := range s.sys.Stations {
		if s.on[i] {
			st.Observe(t, fb)
		}
	}

	if s.roundObs != nil {
		s.roundObs.ObserveRound(t, s.on)
	}
	if s.fbObs != nil {
		s.fbObs.ObserveFeedback(t, fb)
	}
	if s.opt.Tracer != nil {
		s.opt.Tracer.TraceRound(t, s.actions, fb, deliveredPkts)
	}

	var totalQueue int64
	for i, st := range s.sys.Stations {
		l := st.QueueLen()
		s.queueLen[i] = l
		totalQueue += int64(l)
	}
	if s.queueObs != nil {
		s.queueObs.ObserveQueues(t, s.queueLen)
	}
	s.tracker.ObserveStationQueues(s.queueLen)
	s.tracker.ObserveRound(t, totalQueue, energy)
	if s.roundEnd != nil {
		s.roundEnd(t)
	}
	s.round++

	if s.opt.CheckEvery > 0 && s.round%s.opt.CheckEvery == 0 {
		if err := s.CheckConservation(); err != nil {
			return err
		}
	}
	return nil
}

// CheckConservation verifies exactly-once packet ownership: every
// in-flight packet is held by exactly one station, no station holds a
// delivered or unknown packet, and (for algorithms declared direct) every
// packet still sits in the station it was injected into. It requires
// conservation tracking (Options.CheckEvery > 0) and stations
// implementing PacketHolder. Violations about held packets come in
// station order, then those about in-flight packets in ascending ID
// order, so reports are deterministic.
func (s *Sim) CheckConservation() error {
	l := s.ledger
	if l == nil {
		return fmt.Errorf("core: conservation tracking disabled (set Options.CheckEvery)")
	}
	l.beginCheck()
	for i, st := range s.sys.Stations {
		h, ok := st.(PacketHolder)
		if !ok {
			return fmt.Errorf("core: station %d does not implement PacketHolder", i)
		}
		l.held = h.AppendHeld(l.held[:0])
		for _, p := range l.held {
			if l.hold(p.ID) > 1 {
				if err := s.violate("packet %v held by more than one station", p); err != nil {
					return err
				}
			}
			if l.gone(p.ID) {
				if err := s.violate("station %d holds already-delivered packet %v", i, p); err != nil {
					return err
				}
			} else if l.ring.Get(p.ID) == nil {
				if err := s.violate("station %d holds unknown packet %v", i, p); err != nil {
					return err
				}
			}
			if s.sys.Info.Direct && i != p.Src {
				if err := s.violate("direct algorithm relayed packet %v to station %d", p, i); err != nil {
					return err
				}
			}
		}
	}
	for id := l.ring.Base(); id < l.ring.Next(); id++ {
		e := l.ring.Get(id)
		if e == nil {
			continue
		}
		if n := l.holders(e); n != 1 {
			if err := s.violate("in-flight packet %v held by %d stations", e.packet(id), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// LivePackets returns the number of injected-but-undelivered packets
// (available only with conservation tracking).
func (s *Sim) LivePackets() int {
	if s.ledger == nil {
		return 0
	}
	return s.ledger.ring.Live()
}
