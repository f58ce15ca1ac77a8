package core

import (
	"slices"
	"strings"
	"testing"

	"earmac/internal/mac"
	"earmac/internal/sched"
)

// scriptProto follows a fixed per-round action script and records what it
// hears. Injected packets accumulate in a simple queue; the script can
// transmit the oldest one with txPacket.
type scriptProto struct {
	acts       []Action
	txPacket   []bool // for rounds where acts[i].Transmit: attach oldest queued packet
	queue      []mac.Packet
	heard      []mac.Feedback
	rounds     []int64
	removeOnTx bool
}

func (p *scriptProto) Inject(pkt mac.Packet) { p.queue = append(p.queue, pkt) }

func (p *scriptProto) Act(round int64) Action {
	if int(round) >= len(p.acts) {
		return Off()
	}
	a := p.acts[round]
	if a.Transmit && int(round) < len(p.txPacket) && p.txPacket[round] && len(p.queue) > 0 {
		a.Msg = mac.PacketMsg(p.queue[0])
		if p.removeOnTx {
			p.queue = p.queue[1:]
		}
	}
	return a
}

func (p *scriptProto) Observe(round int64, fb mac.Feedback) {
	p.heard = append(p.heard, fb)
	p.rounds = append(p.rounds, round)
	// Consume packets addressed to us... scriptProto has no identity; tests
	// handle removal via removeOnTx on the sender side.
}

func (p *scriptProto) QueueLen() int { return len(p.queue) }

func (p *scriptProto) AppendHeld(dst []mac.Packet) []mac.Packet { return append(dst, p.queue...) }

// injectOnce injects a fixed list at round 0.
type injectOnce struct{ injs []Injection }

func (a *injectOnce) InjectAppend(round int64, buf []Injection) []Injection {
	if round == 0 {
		buf = append(buf, a.injs...)
	}
	return buf
}

func sys(cap int, protos ...Protocol) *System {
	return &System{
		Info:     AlgorithmInfo{Name: "test", EnergyCap: cap},
		Stations: protos,
	}
}

func TestSilenceFeedback(t *testing.T) {
	a := &scriptProto{acts: []Action{Listen()}}
	b := &scriptProto{acts: []Action{Off()}}
	s := NewSim(sys(2, a, b), &injectOnce{}, Options{Strict: true})
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(a.heard) != 1 || a.heard[0].Kind != mac.FbSilence {
		t.Errorf("listener heard %+v, want silence", a.heard)
	}
	if len(b.heard) != 0 {
		t.Error("off station received feedback")
	}
	if s.Tracker().SilentRounds != 1 {
		t.Error("silent round not counted")
	}
}

func TestSuccessfulTransmissionHeardByAllOn(t *testing.T) {
	ctrl := mac.MakeControl(4)
	ctrl.SetBit(1, true)
	tx := &scriptProto{acts: []Action{Transmit(mac.CtrlMsg(ctrl))}}
	rx := &scriptProto{acts: []Action{Listen()}}
	off := &scriptProto{acts: []Action{Off()}}
	s := NewSim(sys(2, tx, rx, off), &injectOnce{}, Options{Strict: true})
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	// The transmitter hears its own message.
	for name, p := range map[string]*scriptProto{"tx": tx, "rx": rx} {
		if len(p.heard) != 1 || p.heard[0].Kind != mac.FbHeard {
			t.Fatalf("%s heard %+v", name, p.heard)
		}
		if !p.heard[0].Msg.Ctrl.Bit(1) {
			t.Errorf("%s control bits corrupted", name)
		}
	}
	if len(off.heard) != 0 {
		t.Error("off station heard a message")
	}
	if s.Tracker().LightRounds != 1 {
		t.Error("light round not counted")
	}
	if s.Tracker().ControlBits != 8 {
		t.Errorf("ControlBits = %d, want 8", s.Tracker().ControlBits)
	}
}

func TestCollision(t *testing.T) {
	tx1 := &scriptProto{acts: []Action{Transmit(mac.CtrlMsg(nil))}}
	tx2 := &scriptProto{acts: []Action{Transmit(mac.CtrlMsg(nil))}}
	s := NewSim(sys(2, tx1, tx2), &injectOnce{}, Options{Strict: true})
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	if tx1.heard[0].Kind != mac.FbCollision || tx2.heard[0].Kind != mac.FbCollision {
		t.Error("colliding transmitters should hear collision")
	}
	if s.Tracker().CollisionRounds != 1 {
		t.Error("collision round not counted")
	}
}

func TestDeliveryRequiresDestinationOn(t *testing.T) {
	// Station 0 transmits a packet to station 1 twice; station 1 is off in
	// round 0 and on in round 1. Only the second transmission delivers.
	tx := &scriptProto{
		acts:       []Action{Transmit(mac.Message{}), Transmit(mac.Message{})},
		txPacket:   []bool{true, true},
		removeOnTx: false,
	}
	rx := &scriptProto{acts: []Action{Off(), Listen()}}
	s := NewSim(sys(2, tx, rx), &injectOnce{injs: []Injection{{Station: 0, Dest: 1}}}, Options{Strict: true})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Tracker().Delivered != 0 {
		t.Fatal("delivered although destination off")
	}
	tx.removeOnTx = true // deliver and remove on second attempt
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Tracker().Delivered != 1 {
		t.Fatal("not delivered although destination on")
	}
	if s.Tracker().MaxLatency != 1 {
		t.Errorf("latency = %d, want 1", s.Tracker().MaxLatency)
	}
}

func TestSelfDelivery(t *testing.T) {
	// A station transmitting a self-addressed packet while on delivers it
	// to itself (it hears its own message).
	tx := &scriptProto{
		acts:       []Action{Transmit(mac.Message{})},
		txPacket:   []bool{true},
		removeOnTx: true,
	}
	s := NewSim(sys(1, tx), &injectOnce{injs: []Injection{{Station: 0, Dest: 0}}}, Options{Strict: true})
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	if s.Tracker().Delivered != 1 {
		t.Error("self-addressed packet not delivered")
	}
}

// TestViolations pins the simulator's per-round model checks on faulty
// stations and adversaries. Each case runs three ways: lenient with no
// validator attached, lenient with ForceChecked (which attaches the
// schedule-conformance scan), and strict. The lenient runs must record
// exactly the listed Tracker.Violations, in order; the strict run must
// stop with exactly the first of them as its error.
func TestViolations(t *testing.T) {
	listen := func(rounds int) *scriptProto {
		return &scriptProto{acts: slices.Repeat([]Action{Listen()}, rounds)}
	}
	cases := []struct {
		name   string
		rounds int64
		injs   scriptAdv
		system func() *System
		// want is the lenient list with validators attached; bare, when
		// non-nil, is the list without them (the schedule scan is the
		// only check that needs a validator).
		want, bare []string
		strict     string
	}{{
		name:   "transmit while off",
		rounds: 1,
		system: func() *System { return sys(2, &scriptProto{acts: []Action{{Transmit: true}}}) },
		want:   []string{"station 0 transmits while off"},
		strict: "round 0: station 0 transmits while off",
	}, {
		name:   "energy cap",
		rounds: 1,
		system: func() *System { return sys(2, listen(1), listen(1), listen(1)) },
		want:   []string{"3 stations on exceeds energy cap 2"},
		strict: "round 0: 3 stations on exceeds energy cap 2",
	}, {
		name:   "plain packet",
		rounds: 1,
		system: func() *System {
			system := sys(2, &scriptProto{acts: []Action{Transmit(mac.CtrlMsg(mac.MakeControl(3)))}})
			system.Info.PlainPacket = true
			return system
		},
		want:   []string{"station 0 violates plain-packet discipline (packet=false, ctrl=8 bits)"},
		strict: "round 0: station 0 violates plain-packet discipline (packet=false, ctrl=8 bits)",
	}, {
		name:   "oblivious schedule",
		rounds: 1,
		system: func() *System {
			// The schedule says station 0 is off in round 0, but it listens.
			system := sys(2, listen(1))
			system.Schedule = sched.Func{N: 1, P: 1, F: func(int, int64) bool { return false }}
			return system
		},
		want:   []string{"station 0 violates oblivious schedule: on=true"},
		bare:   []string{},
		strict: "round 0: station 0 violates oblivious schedule: on=true",
	}, {
		name:   "injection out of range",
		rounds: 1,
		injs:   scriptAdv{0: {{Station: 5, Dest: 0}}},
		system: func() *System { return sys(2, &scriptProto{}) },
		want:   []string{"injection out of range: {Station:5 Dest:0}"},
		strict: "round 0: injection out of range: {Station:5 Dest:0}",
	}, {
		name:   "mixed",
		rounds: 2,
		injs:   scriptAdv{0: {{Station: 5, Dest: 0}, {Station: 1, Dest: 2}, {Station: 0, Dest: -1}}},
		system: func() *System {
			return sys(2, &scriptProto{acts: []Action{{Transmit: true}}}, listen(2), listen(2), listen(2))
		},
		want: []string{
			"injection out of range: {Station:5 Dest:0}",
			"injection out of range: {Station:0 Dest:-1}",
			"station 0 transmits while off",
			"3 stations on exceeds energy cap 2",
			"3 stations on exceeds energy cap 2",
		},
		strict: "round 0: injection out of range: {Station:5 Dest:0}",
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(opt Options) (*Sim, error) {
				s := NewSim(c.system(), c.injs, opt)
				return s, s.Run(c.rounds)
			}
			bare := c.want
			if c.bare != nil {
				bare = c.bare
			}
			for _, v := range []struct {
				name string
				opt  Options
				want []string
			}{
				{"no validator", Options{}, bare},
				{"ForceChecked", Options{ForceChecked: true}, c.want},
			} {
				s, err := run(v.opt)
				if err != nil {
					t.Fatalf("%s: lenient run returned %v", v.name, err)
				}
				if got := s.Tracker().Violations; !slices.Equal(got, v.want) {
					t.Errorf("%s: lenient violations:\n got %q\nwant %q", v.name, got, v.want)
				}
			}
			s, err := run(Options{Strict: true})
			if err == nil || err.Error() != c.strict {
				t.Errorf("strict error = %v, want %q", err, c.strict)
			}
			if got := s.Tracker().Violations; !slices.Equal(got, c.want[:1]) {
				t.Errorf("strict violations = %q, want %q", got, c.want[:1])
			}
		})
	}
}

func TestConservationDetectsLoss(t *testing.T) {
	// A protocol that silently drops its packet: conservation must flag the
	// lost packet.
	drop := &scriptProto{acts: []Action{Off()}}
	s := NewSim(sys(2, drop), &injectOnce{injs: []Injection{{Station: 0, Dest: 0}}}, Options{Strict: true, CheckEvery: 1})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	drop.queue = nil // lose the packet
	err := s.Step()
	if err == nil || !strings.Contains(err.Error(), "held by 0 stations") {
		t.Errorf("want lost-packet violation, got %v", err)
	}
}

func TestConservationDetectsDuplicate(t *testing.T) {
	a := &scriptProto{acts: []Action{Off(), Off()}}
	b := &scriptProto{acts: []Action{Off(), Off()}}
	s := NewSim(sys(2, a, b), &injectOnce{injs: []Injection{{Station: 0, Dest: 1}}}, Options{Strict: true, CheckEvery: 1})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	b.queue = append(b.queue, a.queue[0]) // duplicate ownership
	err := s.Step()
	if err == nil || !strings.Contains(err.Error(), "more than one station") {
		t.Errorf("want duplicate-holder violation, got %v", err)
	}
}

func TestConservationDetectsIndirectHopInDirectAlgorithm(t *testing.T) {
	a := &scriptProto{acts: []Action{Off(), Off()}}
	b := &scriptProto{acts: []Action{Off(), Off()}}
	system := sys(2, a, b)
	system.Info.Direct = true
	s := NewSim(system, &injectOnce{injs: []Injection{{Station: 0, Dest: 1}}}, Options{Strict: true, CheckEvery: 1})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	// Move the packet to station 1 as if relayed.
	b.queue = a.queue
	a.queue = nil
	err := s.Step()
	if err == nil || !strings.Contains(err.Error(), "direct algorithm relayed") {
		t.Errorf("want direct-violation, got %v", err)
	}
}

func TestConservationCleanRun(t *testing.T) {
	tx := &scriptProto{
		acts:       []Action{Transmit(mac.Message{}), Off()},
		txPacket:   []bool{true},
		removeOnTx: true,
	}
	rx := &scriptProto{acts: []Action{Listen(), Off()}}
	s := NewSim(sys(2, tx, rx), &injectOnce{injs: []Injection{{Station: 0, Dest: 1}}},
		Options{Strict: true, CheckEvery: 1})
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if live := s.ledger.ring.Live(); live != 0 {
		t.Errorf("%d packets live after delivery", live)
	}
}

type recordingAdv struct {
	injectOnce
	observed [][]bool
}

func (r *recordingAdv) ObserveRound(round int64, on []bool) {
	cp := make([]bool, len(on))
	copy(cp, on)
	r.observed = append(r.observed, cp)
}

func TestRoundObserverSeesOnVector(t *testing.T) {
	a := &scriptProto{acts: []Action{Listen(), Off()}}
	b := &scriptProto{acts: []Action{Off(), Listen()}}
	adv := &recordingAdv{}
	s := NewSim(sys(2, a, b), adv, Options{Strict: true})
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	want := [][]bool{{true, false}, {false, true}}
	for r := range want {
		for i := range want[r] {
			if adv.observed[r][i] != want[r][i] {
				t.Errorf("observed[%d] = %v, want %v", r, adv.observed[r], want[r])
			}
		}
	}
}

type countingTracer struct{ rounds int }

func (c *countingTracer) TraceRound(int64, []Action, mac.Feedback, []mac.Packet) { c.rounds++ }

func TestTracerCalledEveryRound(t *testing.T) {
	a := &scriptProto{acts: []Action{Off(), Off(), Off()}}
	tr := &countingTracer{}
	s := NewSim(sys(1, a), &injectOnce{}, Options{Strict: true, Tracer: tr})
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	if tr.rounds != 3 {
		t.Errorf("tracer called %d times, want 3", tr.rounds)
	}
}

func TestQueueTrackedPerRound(t *testing.T) {
	a := &scriptProto{acts: []Action{Off(), Off()}}
	s := NewSim(sys(1, a), &injectOnce{injs: []Injection{{0, 0}, {0, 0}, {0, 0}}}, Options{Strict: true})
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if s.Tracker().MaxQueue != 3 {
		t.Errorf("MaxQueue = %d, want 3", s.Tracker().MaxQueue)
	}
	if s.Tracker().Injected != 3 {
		t.Errorf("Injected = %d, want 3", s.Tracker().Injected)
	}
	if s.Round() != 2 {
		t.Errorf("Round = %d", s.Round())
	}
}

// TestExitObserver: the exit hook fires exactly when a packet leaves
// the stations, with the packet, its round, and whether it was
// delivered: a delivery when the destination is switched on, a drop
// when a direct algorithm's destination is off. Both simulator paths.
func TestExitObserver(t *testing.T) {
	type exit struct {
		round     int64
		p         mac.Packet
		delivered bool
	}
	for _, forceChecked := range []bool{false, true} {
		for _, rxOn := range []bool{true, false} {
			tx := &scriptProto{
				acts:       []Action{Listen(), Transmit(mac.Message{}), Listen()},
				txPacket:   []bool{false, true, false},
				removeOnTx: true,
			}
			rxAct := Listen()
			if !rxOn {
				rxAct = Off()
			}
			rx := &scriptProto{acts: []Action{Listen(), rxAct, Listen()}}
			system := sys(2, tx, rx)
			system.Info.Direct = true
			var exits []exit
			s := NewSim(system,
				&injectOnce{injs: []Injection{{Station: 0, Dest: 1}}},
				Options{
					ForceChecked: forceChecked,
					ExitObserver: func(round int64, p mac.Packet, delivered bool) {
						exits = append(exits, exit{round, p, delivered})
					},
				})
			if err := s.Run(3); err != nil {
				t.Fatal(err)
			}
			if len(exits) != 1 {
				t.Fatalf("checked=%v rxOn=%v: observer saw %d exits, want 1", forceChecked, rxOn, len(exits))
			}
			e := exits[0]
			if e.p.Src != 0 || e.p.Dest != 1 || e.round != 1 || e.delivered != rxOn {
				t.Errorf("checked=%v rxOn=%v: observed %v at round %d delivered=%v, want pkt 0->1 at round 1 delivered=%v",
					forceChecked, rxOn, e.p, e.round, e.delivered, rxOn)
			}
			var wantDelivered, wantDropped int64 = 1, 0
			if !rxOn {
				wantDelivered, wantDropped = 0, 1
			}
			if tr := s.Tracker(); tr.Delivered != wantDelivered || tr.Dropped != wantDropped {
				t.Errorf("checked=%v rxOn=%v: tracker delivered %d dropped %d, want %d and %d",
					forceChecked, rxOn, tr.Delivered, tr.Dropped, wantDelivered, wantDropped)
			}
		}
	}
}
