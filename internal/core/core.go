// Package core implements the executable model of the paper: a
// synchronous multiple access channel shared by n stations under an
// energy cap, with adversarial packet injection.
//
// The simulator drives per-station protocol replicas in lockstep rounds.
// In every round it (1) lets the adversary inject packets, (2) asks every
// station for its action (off, listen, or transmit), (3) resolves the
// channel (success / collision / silence), (4) determines ground-truth
// deliveries, and (5) hands feedback to the switched-on stations. It
// validates the model constraints the paper states: the energy cap, the
// plain-packet discipline, schedule conformance for energy-oblivious
// algorithms, and exactly-once packet ownership.
package core

import (
	"earmac/internal/mac"
	"earmac/internal/sched"
)

// Action is a station's decision for one round. A switched-off station
// (On == false) can neither transmit nor receive. A switched-on station
// either transmits a message or listens.
type Action struct {
	On       bool
	Transmit bool
	Msg      mac.Message
}

// Listen is the action of a station that is on and sensing the channel.
func Listen() Action { return Action{On: true} }

// Off is the action of a switched-off station.
func Off() Action { return Action{} }

// Transmit is the action of a station transmitting msg.
func Transmit(msg mac.Message) Action {
	return Action{On: true, Transmit: true, Msg: msg}
}

// Protocol is one station's replica of a distributed routing algorithm.
// Implementations must rely only on information available to the station:
// the global round number (stations share a synchronized clock), packets
// injected into this station, and channel feedback from rounds in which
// this station was switched on.
type Protocol interface {
	// Inject notifies the station of a packet injected into it. Injection
	// happens at the start of a round, before actions are decided, and
	// reaches the station whether it is on or off.
	Inject(p mac.Packet)
	// Act returns the station's action for the given round. It is called
	// exactly once per round for every station, in increasing round order.
	Act(round int64) Action
	// Observe delivers channel feedback for a round in which the station
	// was switched on. It is never called for switched-off rounds.
	Observe(round int64, fb mac.Feedback)
	// QueueLen returns the number of packets currently queued here.
	QueueLen() int
}

// PacketHolder is an optional Protocol extension that exposes the held
// packets for invariant checking (exactly-once ownership, direct routing).
// AppendHeld appends every packet the station holds to dst and returns
// the extended slice. It must not change the station, and the station
// must not retain dst: the checker reuses one buffer across stations and
// checks, so a steady-state check allocates nothing. The order is the
// station's own but must be deterministic, since violation reports
// follow it. All algorithms in this repository implement it.
type PacketHolder interface {
	AppendHeld(dst []mac.Packet) []mac.Packet
}

// AlgorithmInfo describes the declared properties of an algorithm, in the
// paper's taxonomy. The simulator validates the declarations at runtime.
type AlgorithmInfo struct {
	Name string
	// EnergyCap is the number of simultaneously-on stations the algorithm
	// needs (3 for Orchestra, 2 for Count-Hop and Adjust-Window, k for the
	// oblivious algorithms).
	EnergyCap int
	// PlainPacket algorithms transmit messages consisting of exactly one
	// packet and no control bits.
	PlainPacket bool
	// Direct algorithms never relay: every packet hops once, from the
	// station it was injected into straight to its destination.
	Direct bool
	// Oblivious algorithms fix every station's on/off pattern in advance.
	Oblivious bool
}

// System is an instantiated algorithm: one protocol replica per station
// plus its declared properties. Schedule is non-nil exactly for oblivious
// algorithms and is cross-checked against the stations' actual behaviour.
type System struct {
	Info     AlgorithmInfo
	Stations []Protocol
	Schedule sched.Schedule
	// Idle, when non-nil, declares the system's periodic idle-round
	// profile for the quiescence fast-forward engine (see skip.go).
	// Constructors set it only when every station implements
	// mac.Skipper; nil keeps the classic per-round loop.
	Idle IdleProfiler
	// FeedbackFreeIdle declares that every station's idle evolution
	// ignores channel feedback: SkipIdle is exact even over rounds the
	// station was switched off for, or heard a collision in. A quiescent
	// sim of such a system ticks a jammed or outaged round in O(1)
	// instead of waking its listeners to observe the collision, and the
	// duty-cycle wrapper skips only over such a system.
	FeedbackFreeIdle bool
	// Awake, when non-nil, names each round's possibly-on stations for
	// the sparse sweep (see Awaker); nil keeps the full sweep.
	Awake Awaker
}

// Awaker is the sparse-sweep contract of an energy-oblivious system
// (DESIGN.md §16). AppendOn appends to buf, in ascending order, every
// station that may switch on in round t, and returns the extended
// slice. The simulator passes one scratch buffer, reused every round,
// with room for all n stations. It is sched.Schedule's method, so a
// schedule that names its on-sets cheaply can serve as the awake set
// too.
//
// Every other station's Act(t) returns Off and leaves no state behind:
// an Off round has no input, so calling it or not changes nothing the
// station does or reports afterwards. With no validator attached a sim
// therefore visits only the awake stations and the round's injected
// ones, and skips the rest outright.
type Awaker interface {
	AppendOn(t int64, buf []int) []int
}

// N returns the number of stations.
func (s *System) N() int { return len(s.Stations) }

// Injection is an adversary's decision to inject one packet into Station
// addressed to Dest.
type Injection struct {
	Station int
	Dest    int
}

// Adversary generates packet injections. Implementations enforce their
// own (ρ, β) leaky-bucket constraint; see the adversary package.
type Adversary interface {
	// InjectAppend appends the injections for the given round to buf and
	// returns the extended slice. Called once per round before stations
	// act. The simulator passes one scratch buffer, reused every round,
	// so the steady-state round loop allocates nothing; the returned
	// slice is owned by the caller and valid only until the next call.
	InjectAppend(round int64, buf []Injection) []Injection
}

// RoundObserver is an optional Adversary extension for adaptive
// adversaries (e.g. the Lemma 1 construction) that react to which
// stations were switched on. ObserveRound is called after each round with
// the on/off vector; the slice is reused and must not be retained.
type RoundObserver interface {
	ObserveRound(round int64, on []bool)
}

// QueueObserver is an optional Adversary extension for adaptive
// adversaries that react to queue build-up (the adversary knows the
// algorithm and can simulate it, so exposing queue lengths grants no
// power the model doesn't already allow). ObserveQueues is called after
// each round; the slice is reused and must not be retained.
type QueueObserver interface {
	ObserveQueues(round int64, queueLens []int)
}

// FeedbackObserver is an optional Adversary extension receiving the
// channel feedback of every round, letting an adaptive adversary track
// protocol state (token positions, phases) exactly — again, power the
// omniscient adversary of the model already has.
type FeedbackObserver interface {
	ObserveFeedback(round int64, fb mac.Feedback)
}

// Tracer is an optional hook receiving a full view of every round, used
// for debugging and the example binaries. The slices are reused between
// rounds and must not be retained.
type Tracer interface {
	TraceRound(round int64, actions []Action, fb mac.Feedback, delivered []mac.Packet)
}
