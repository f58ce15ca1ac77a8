package core

import (
	"fmt"

	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

// ConservationCheckEvery is the packet-conservation cadence
// (Options.CheckEvery) of the Table 1 rows (internal/expt) and of the
// façade unless its checks are disabled: a prime, so it never aligns
// with phase or pattern periods.
const ConservationCheckEvery = 10007

// Options configures a simulation run.
type Options struct {
	// Strict makes model violations return errors instead of only being
	// recorded in the tracker. Tests run strict; long benchmarks may not.
	// A strict sim attaches the schedule-conformance scan (see Sim).
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
	// Tracer, when non-nil, receives a full view of every round. It is
	// one of the validators (see Sim) and attaches the schedule scan too.
	Tracer Tracer
	// InjectionObserver, when non-nil, receives every round's injections
	// right after the adversary produces them (before range validation)
	// — the hook the trace recorder (internal/scenario) captures
	// replayable runs with. The slice is reused between rounds and must
	// not be retained. Unlike Tracer it attaches no validator.
	InjectionObserver func(round int64, injs []Injection)
	// ExitObserver, when non-nil, receives every packet that leaves the
	// stations, in the round it leaves: delivered (true) when its
	// switched-on destination hears it, or dropped (false) when it dies
	// mid-route — a heard round whose destination is switched off under
	// a direct algorithm (see Counters.Dropped). It is the hook relay
	// layers route deliveries and reclaim per-packet state with; like
	// InjectionObserver it attaches no validator.
	ExitObserver func(round int64, p mac.Packet, delivered bool)
	// ForceChecked attaches the schedule-conformance scan (see Sim) to a
	// sim that would otherwise run with no validator, which also keeps
	// the quiescence engine off. It is the lenient schedule audit, and
	// the equivalence tests' way of comparing runs with and without
	// validators.
	ForceChecked bool
	// Disruption, when non-nil, is the source of externally disrupted
	// rounds: jamming and channel outages (see Disruption).
	Disruption Disruption
	// NoSkip disables the quiescence fast-forward engine (quiesce.go)
	// even when the system declares an idle profile, and the sparse
	// sweep even when it declares an awake set (Awaker), forcing the
	// classic per-round loop: every round visits every station. Both
	// are bit-identical by construction; the flag exists as an escape
	// hatch, for the equivalence tests, and for callers that read
	// station state after every round (a recording of a duty-cycled
	// run).
	NoSkip bool
}

// Disruption is the source of a sim's externally disrupted rounds. A
// disrupted round delivers nothing: every switched-on station observes
// FbCollision regardless of how many stations transmitted (jamming
// noise and a dead channel are indistinguishable from a collision at
// the receivers), stations still spend their energy, and the tracker
// counts the round as a collision plus the matching Jammed/Outaged
// counter.
type Disruption interface {
	// Disrupt returns the flags of round, which are nonzero when it is
	// disrupted. It is consulted once per executed or ticked round, with
	// rounds increasing — after the round's injections are gathered,
	// before the station sweep — and must not allocate in steady state.
	// Rounds a span skips are not consulted, so a source with per-round
	// state accounts for them at its next consult (the live jammer
	// refills its bucket then).
	Disrupt(round int64) Disrupt
	// NextDisrupt returns a lower bound on the earliest round >= from
	// whose Disrupt may return nonzero, or -1 when none remains. A span
	// skip ends at or before it; returning from pins spans.
	NextDisrupt(from int64) int64
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
// There is one round loop. It always runs the model checks that cost
// O(1) a round — the energy cap, the transmit-while-off and plain-packet
// disciplines, injection ranges — and three validators that NewSim
// attaches as state, each costing the loop one nil check when absent:
//
//   - the schedule-conformance scan, O(n) a round on oblivious systems
//     (one Schedule.AppendOn, walked against the on flags), attached in
//     strict mode, with conservation checking, with a Tracer, or with
//     Options.ForceChecked;
//   - the conservation ledger (Options.CheckEvery), O(1) per injection
//     and delivery plus a CheckConservation every CheckEvery rounds;
//   - the Tracer, for which the loop keeps each round's action vector
//     and delivered packets.
//
// With no validator attached (FastPath) the loop allocates nothing in
// steady state — injections land in a reused scratch buffer (see
// Adversary) and all statistics go to the tracker's flat counters
// — quiescent stretches may be fast-forwarded (quiesce.go), and a
// system that names each round's awake set (Awaker) is swept sparsely:
// a round visits that set and its injected stations, not all n. The
// tracker totals are the same either way for any well-behaved system;
// only schedule-conformance violations go unnoticed without the scan.
type Sim struct {
	sys     *System
	adv     Adversary
	opt     Options
	tracker *metrics.Tracker

	// Adversary capabilities, resolved once so the round loop performs no
	// per-round type assertions.
	roundObs RoundObserver
	queueObs QueueObserver
	fbObs    FeedbackObserver
	injObs   func(round int64, injs []Injection)
	exitObs  func(round int64, p mac.Packet, delivered bool)
	disrupt  Disruption

	// Validators (see the type comment); each is nil when not attached.
	sched  sched.Schedule
	onSet  []int // the schedule scan's scratch: the round's on-set
	ledger *ledger
	tracer Tracer

	round      int64
	nextID     int64
	on         []bool       // the round's on flags; a sparse round clears its visited ones at its end
	queueLen   []int        // each station's queue at the end of its last visited round
	totalQueue int64        // the running sum of queueLen
	visit      []int        // the round's visit list: every station, or the awake set's buffer
	injBuf     []Injection  // reused injection scratch
	actions    []Action     // the round's actions, kept for the tracer only
	delBuf     []mac.Packet // the round's deliveries, kept for the tracer only

	// The awake set of a sparse sweep (no validator attached; see
	// Awaker), nil on a sim that visits every station every round.
	awake Awaker

	// Quiescence fast-forward state (no validator attached; see quiesce.go).
	skipOK      bool          // engine enabled for this sim
	quiescent   bool          // currently inside a quiescent stretch
	qFrom       int64         // first round the stations have not executed
	skippers    []mac.Skipper // per-station, populated only when skipOK
	advSkip     EventSkipper  // adversary skip contract, when supported
	idleHor     IdleHorizon   // the idle profile's horizon, when it has one
	idleCycle   []IdleRound   // reused idle-profile buffer
	idleAnchor  int64         // round idleCycle[0] describes
	idleBreakAt int64         // profile horizon (-1: indefinite)
	prefEnergy  []int64       // prefix sums over idleCycle (span accrual)
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
		on:       make([]bool, sys.N()),
		queueLen: make([]int, sys.N()),
	}
	for i, st := range sys.Stations {
		s.queueLen[i] = st.QueueLen()
		s.totalQueue += int64(s.queueLen[i])
	}
	if adv != nil {
		s.roundObs, _ = adv.(RoundObserver)
		s.queueObs, _ = adv.(QueueObserver)
		s.fbObs, _ = adv.(FeedbackObserver)
		s.advSkip, _ = adv.(EventSkipper)
	}
	s.injObs = opt.InjectionObserver
	s.exitObs = opt.ExitObserver
	s.disrupt = opt.Disruption
	if opt.CheckEvery > 0 {
		s.ledger = &ledger{}
	}
	if opt.Tracer != nil {
		s.tracer = opt.Tracer
		s.actions = make([]Action, sys.N())
	}
	if !s.FastPath() {
		if s.sched = sys.Schedule; s.sched != nil {
			s.onSet = make([]int, 0, sys.N())
		}
	} else if !opt.NoSkip && s.roundObs == nil && s.queueObs == nil && s.fbObs == nil {
		// The fast-forward engine and the sparse sweep run only here:
		// the validators need every station's action every round, and
		// the adaptive-adversary hooks see each round individually.
		// The engine needs an idle profile and a Skipper at every
		// station; the sparse sweep only an awake set.
		if sys.Idle != nil {
			if skippers, ok := implementAll[mac.Skipper](sys.Stations); ok {
				s.skippers = skippers
				s.skipOK = true
				s.idleHor, _ = sys.Idle.(IdleHorizon)
			}
		}
		s.awake = sys.Awake
	}
	if s.awake == nil {
		// The full sweep visits every station, in index order.
		s.visit = make([]int, sys.N())
		for i := range s.visit {
			s.visit[i] = i
		}
	}
	return s
}

// implementAll returns every station as a T, and whether all of them
// implement it.
func implementAll[T any](stations []Protocol) ([]T, bool) {
	out := make([]T, len(stations))
	for i, st := range stations {
		t, ok := st.(T)
		if !ok {
			return nil, false
		}
		out[i] = t
	}
	return out, true
}

// Tracker returns the statistics collector.
func (s *Sim) Tracker() *metrics.Tracker { return s.tracker }

// Round returns the number of completed rounds.
func (s *Sim) Round() int64 { return s.round }

// FastPath reports whether the sim runs with no validator attached:
// lenient, no conservation checking, no tracer, not ForceChecked.
func (s *Sim) FastPath() bool {
	o := &s.opt
	return !o.Strict && o.CheckEvery <= 0 && o.Tracer == nil && !o.ForceChecked
}

// SkipCapable reports whether the quiescence fast-forward engine was
// enabled at construction: no validator is attached, NoSkip is off,
// the system declares an idle profile, every station implements
// mac.Skipper, and no adaptive-adversary hook pins the loop.
func (s *Sim) SkipCapable() bool { return s.skipOK }

// Sparse reports whether the sim sweeps sparsely, as decided at
// construction: no validator is attached, NoSkip is off, no
// adaptive-adversary hook pins the loop, and the system declares an
// awake set (Awaker).
func (s *Sim) Sparse() bool { return s.awake != nil }

// violate records a model violation. A lenient sim carries on (nil); a
// strict one stops with the violation as its error.
func (s *Sim) violate(format string, args ...any) error {
	s.tracker.Violate(format, args...)
	if !s.opt.Strict {
		return nil
	}
	//earmac:alloc -- the strict error ends the run
	return fmt.Errorf("round %d: "+format, append([]any{s.round}, args...)...)
}

// Run executes the given number of rounds. In strict mode it stops at the
// first model violation. Quiescent stretches advance by O(1) ticks and
// closed-form span skips (quiesce.go); Run settles any pending skip
// before returning, so station state is exact at the exit.
func (s *Sim) Run(rounds int64) error {
	end := s.round + rounds
	for s.round < end {
		var err error
		if s.quiescent {
			err = s.quiescentAdvance(end)
		} else {
			err = s.step()
		}
		if err != nil {
			return err
		}
	}
	s.Settle()
	return nil
}

// Step executes one round.
func (s *Sim) Step() error {
	if s.quiescent {
		return s.quiescentAdvance(s.round + 1)
	}
	return s.step()
}

// gather assembles one round's injection list in the reused scratch
// buffer and reports it to InjectionObserver. Every executed or ticked
// round calls it. Packet IDs are handed out sequentially, in injection
// order, to every in-range injection: the contract a topology layer
// relies on to mirror IDs by emission order (internal/network).
func (s *Sim) gather(t int64) []Injection {
	buf := s.injBuf[:0]
	if s.adv != nil {
		buf = s.adv.InjectAppend(t, buf)
		if s.injObs != nil && len(buf) > 0 {
			s.injObs(t, buf)
		}
	}
	s.injBuf = buf
	return buf
}

// step executes one round: it obtains the injections and the round's
// disruption flags, then runs the station sweep. The Disrupt consult
// commutes with the sweep — it interacts with nothing before channel
// resolution — so hoisting it lets the quiescence engine, which must
// consult it before deciding to wake, share stepFrom.
//
//earmac:hotpath
func (s *Sim) step() error {
	t := s.round
	injs := s.gather(t)
	var disrupted Disrupt
	if s.disrupt != nil {
		disrupted = s.disrupt.Disrupt(t)
	}
	return s.stepFrom(t, injs, disrupted)
}

// stepFrom is the station sweep of round t, whose injections and
// disruption flags have already been obtained. A strict sim returns the
// round's first violation and leaves the round unfinished.
//
// The sweep runs over the round's visit list: every station, or on a
// sparse sim the round's awake set, in ascending order either way. A
// station outside the awake set acts Off and keeps no trace of it
// (Awaker): it spends no energy, transmits nothing, hears nothing and
// cannot be a delivery's switched-on destination, and its queue moves
// only on Inject. So a sparse round refreshes the running queue total
// and the per-station peaks from its awake and injected stations alone
// and never touches the others.
//
//earmac:hotpath
func (s *Sim) stepFrom(t int64, injs []Injection, disrupted Disrupt) error {
	n := s.sys.N()
	tr := s.tracker
	stations := s.sys.Stations
	sparse := s.awake != nil

	// 1. Injections.
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
		stations[in.Station].Inject(p)
		tr.Injected++
	}

	// 2. Station actions. Only the transmitted message is retained,
	// unless a tracer wants the whole action vector.
	visit := s.visit
	if sparse {
		visit = s.awake.AppendOn(t, visit[:0])
		s.visit = visit
	}
	energy := 0
	transmitters := 0
	lastTx := -1
	var txMsg mac.Message
	for _, i := range visit {
		a := stations[i].Act(t)
		if a.On {
			energy++
		}
		if a.Transmit {
			if !a.On {
				if err := s.violate("station %d transmits while off", i); err != nil {
					return err
				}
				a.Transmit = false
			} else {
				transmitters++
				lastTx = i
				txMsg = a.Msg
			}
		}
		s.on[i] = a.On
		if s.actions != nil {
			s.actions[i] = a
		}
	}

	// 3. Model validation.
	if energy > s.sys.Info.EnergyCap {
		if err := s.violate("%d stations on exceeds energy cap %d", energy, s.sys.Info.EnergyCap); err != nil {
			return err
		}
	}
	if s.sched != nil {
		// Walk the stations against the round's ascending on-set.
		s.onSet = s.sched.AppendOn(t, s.onSet[:0])
		next := 0
		for i, on := range s.on {
			scheduled := next < len(s.onSet) && s.onSet[next] == i
			if scheduled {
				next++
			}
			if on != scheduled {
				if err := s.violate("station %d violates oblivious schedule: on=%v", i, on); err != nil {
					return err
				}
			}
		}
	}
	if s.sys.Info.PlainPacket && transmitters == 1 && (!txMsg.HasPacket || len(txMsg.Ctrl) > 0) {
		if err := s.violate("station %d violates plain-packet discipline (packet=%v, ctrl=%d bits)",
			lastTx, txMsg.HasPacket, txMsg.Ctrl.Bits()); err != nil {
			return err
		}
	}

	// 4. Channel resolution and ground-truth delivery. An externally
	// disrupted round (jam or outage) overrides the contention outcome:
	// nothing is delivered and every listener observes a collision.
	var fb mac.Feedback
	delivered := s.delBuf[:0]
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
		fb = mac.Feedback{Kind: mac.FbHeard, Msg: txMsg}
		tr.HeardRounds++
		tr.ControlBits += int64(txMsg.Ctrl.Bits())
		p := txMsg.Packet
		if txMsg.IsLight() {
			tr.LightRounds++
		} else if s.on[p.Dest] {
			tr.DeliveryRounds++
			tr.ObserveDelivery(t - p.Injected)
			if s.exitObs != nil {
				s.exitObs(t, p, true)
			}
			if s.tracer != nil {
				delivered = append(delivered, p)
			}
			if s.ledger != nil {
				if s.ledger.gone(p.ID) {
					if err := s.violate("packet %v delivered twice", p); err != nil {
						return err
					}
				}
				s.ledger.retire(p.ID)
			}
		} else if s.sys.Info.Direct {
			// A direct algorithm's transmitter treats an uncontended
			// heard round as an acknowledgement and retires the packet,
			// but the destination was switched off (duty-cycled): the
			// packet dies mid-route and leaves conservation tracking as
			// consumed — no station may hold it afterwards.
			tr.Dropped++
			if s.exitObs != nil {
				s.exitObs(t, p, false)
			}
			if s.ledger != nil {
				s.ledger.retire(p.ID)
			}
		}
	default:
		fb.Kind = mac.FbCollision
		tr.CollisionRounds++
	}

	// 5. Feedback to switched-on stations.
	for _, i := range visit {
		if s.on[i] {
			stations[i].Observe(t, fb)
		}
	}

	if s.roundObs != nil {
		s.roundObs.ObserveRound(t, s.on)
	}
	if s.fbObs != nil {
		s.fbObs.ObserveFeedback(t, fb)
	}
	if s.tracer != nil {
		s.delBuf = delivered
		s.tracer.TraceRound(t, s.actions, fb, delivered)
	}

	// 6. Queues of every station whose queue may have moved: the
	// visited ones, and on a sparse round the injected ones, which it
	// did not visit if they were asleep (one listed twice moves nothing
	// the second time). A sparse round first clears the on flags it
	// set, so the next one reads none stale.
	if sparse {
		for _, i := range visit {
			s.on[i] = false
		}
		for _, in := range injs {
			if in.Station >= 0 && in.Station < n {
				visit = append(visit, in.Station)
			}
		}
		s.visit = visit
	}
	total := s.totalQueue
	for _, i := range visit {
		l := stations[i].QueueLen()
		total += int64(l - s.queueLen[i])
		s.queueLen[i] = l
		tr.ObserveStationQueue(i, l)
	}
	s.totalQueue = total
	if s.queueObs != nil {
		s.queueObs.ObserveQueues(t, s.queueLen)
	}
	tr.ObserveRound(t, s.totalQueue, energy)
	s.round++
	if s.ledger != nil && s.round%s.opt.CheckEvery == 0 {
		return s.CheckConservation()
	}
	if s.skipOK && s.totalQueue == 0 && !s.quiescent {
		s.tryEnterQuiescence()
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
		//earmac:alloc -- configuration error: the caller never enabled tracking
		return fmt.Errorf("core: conservation tracking disabled (set Options.CheckEvery)")
	}
	l.beginCheck()
	for i, st := range s.sys.Stations {
		h, ok := st.(PacketHolder)
		if !ok {
			//earmac:alloc -- configuration error: the system cannot be checked at all
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
