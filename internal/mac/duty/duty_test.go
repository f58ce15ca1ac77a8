package duty

import (
	"testing"

	"earmac/internal/core"
	"earmac/internal/mac"
)

// listener is a minimal inner protocol: it listens every round, holds a
// countable queue, and records the feedback it observes.
type listener struct {
	queue    []mac.Packet
	observed int
}

func (l *listener) Inject(p mac.Packet)                  { l.queue = append(l.queue, p) }
func (l *listener) Act(round int64) core.Action          { return core.Listen() }
func (l *listener) Observe(round int64, fb mac.Feedback) { l.observed++ }
func (l *listener) QueueLen() int                        { return len(l.queue) }

func wrapOne(t *testing.T, p Params) (*station, *Group) {
	t.Helper()
	sys := &core.System{
		Info:     core.AlgorithmInfo{Name: "listener", EnergyCap: 1},
		Stations: []core.Protocol{&listener{}},
	}
	wrapped, g := Wrap(sys, p)
	if g == nil {
		t.Fatalf("Wrap(%+v) disabled duty-cycling", p)
	}
	if sys.Info.Oblivious {
		t.Fatal("test premise broken: inner Info claims a schedule")
	}
	if wrapped.Info.Oblivious {
		t.Error("wrapped system still claims an oblivious schedule")
	}
	return wrapped.Stations[0].(*station), g
}

func TestWrapDisabledIsIdentity(t *testing.T) {
	sys := &core.System{Stations: []core.Protocol{&listener{}}}
	got, g := Wrap(sys, Params{})
	if got != sys || g != nil {
		t.Fatalf("Wrap with zero Params = (%p, %v), want the input system and nil group", got, g)
	}
	if (Params{WakeEvery: 8}).Enabled() {
		t.Error("WakeEvery alone must not enable duty-cycling")
	}
}

// TestSleepAfterIdle: a station listens through the idle threshold, then
// suppresses every listen — except the WakeEvery peek rounds — and the
// group counters see each suppression.
func TestSleepAfterIdle(t *testing.T) {
	s, g := wrapOne(t, Params{SleepAfterIdle: 3, WakeEvery: 5})
	for round := int64(0); round < 20; round++ {
		a := s.Act(round)
		// idle hits 3 at the end of round 2, so round 3 is the first
		// suppressed listen; multiples of 5 stay awake.
		wantOn := round < 3 || round%5 == 0
		if a.On != wantOn {
			t.Errorf("round %d: On = %v, want %v", round, a.On, wantOn)
		}
	}
	if g.SleepRounds() != 14 {
		t.Errorf("SleepRounds = %d, want 14 (rounds 3..19 minus the three wake peeks)", g.SleepRounds())
	}
}

// TestInjectResetsIdle: traffic wakes a sleeping station that very
// round, and the idle clock restarts from its queue going empty again.
func TestInjectResetsIdle(t *testing.T) {
	s, _ := wrapOne(t, Params{SleepAfterIdle: 2})
	for round := int64(0); round < 4; round++ {
		if a := s.Act(round); a.On != (round < 2) {
			t.Fatalf("round %d: On = %v during warm-up", round, a.On)
		}
	}
	s.Inject(mac.Packet{ID: 1, Injected: 4})
	if a := s.Act(4); !a.On {
		t.Error("round 4: injection did not wake the station")
	}
	// The queue never drains (the listener keeps its packets), so the
	// station stays awake indefinitely.
	for round := int64(5); round <= 12; round++ {
		if a := s.Act(round); !a.On {
			t.Errorf("round %d: loaded station went to sleep", round)
		}
	}
}

// sink is a listener that consumes every packet on arrival, so its
// queue never holds one.
type sink struct{ listener }

func (s *sink) Inject(mac.Packet) {}

// TestInjectStampsIdleClock: an injection restarts the idle clock by
// itself, even into an inner protocol that queues nothing: a sleeping
// station listens in the injection's round and sleeps again only after
// SleepAfterIdle more empty rounds.
func TestInjectStampsIdleClock(t *testing.T) {
	sys := &core.System{Stations: []core.Protocol{&sink{}}}
	wrapped, _ := Wrap(sys, Params{SleepAfterIdle: 2})
	s := wrapped.Stations[0]
	for round := int64(0); round < 10; round++ {
		if round == 5 {
			s.Inject(mac.Packet{ID: 1, Injected: round})
		}
		if a, want := s.Act(round), round < 2 || round == 5 || round == 6; a.On != want {
			t.Errorf("round %d: On = %v, want %v", round, a.On, want)
		}
	}
}

// TestEnergyBudgetExhaustionIsPermanent: after EnergyBudget switched-on
// rounds the station stops listening for good — no wake schedule and no
// idle reset brings it back.
func TestEnergyBudgetExhaustionIsPermanent(t *testing.T) {
	s, g := wrapOne(t, Params{EnergyBudget: 4, SleepAfterIdle: 100, WakeEvery: 2})
	for round := int64(1); round <= 4; round++ {
		if a := s.Act(round); !a.On {
			t.Fatalf("round %d: suppressed before the budget ran out", round)
		}
	}
	s.Inject(mac.Packet{ID: 1}) // traffic cannot revive a dead battery
	for round := int64(5); round <= 12; round++ {
		if a := s.Act(round); a.On {
			t.Errorf("round %d: exhausted station switched on", round)
		}
	}
	if g.SleepRounds() != 8 {
		t.Errorf("SleepRounds = %d, want 8", g.SleepRounds())
	}
}

// transmitter always sends; duty-cycling must never suppress a
// transmission, whatever the thresholds say.
type transmitter struct{ listener }

func (tr *transmitter) Act(round int64) core.Action {
	return core.Transmit(mac.Message{})
}

func TestTransmissionsAlwaysHonored(t *testing.T) {
	sys := &core.System{Stations: []core.Protocol{&transmitter{}}}
	wrapped, g := Wrap(sys, Params{SleepAfterIdle: 1, EnergyBudget: 2})
	s := wrapped.Stations[0]
	for round := int64(1); round <= 10; round++ {
		if a := s.Act(round); !a.On || !a.Transmit {
			t.Fatalf("round %d: transmission suppressed: %+v", round, a)
		}
	}
	if g.SleepRounds() != 0 {
		t.Errorf("SleepRounds = %d for a station that never listened", g.SleepRounds())
	}
}

// TestGroupAsleepPerRound: Asleep reports the current round's count
// across the whole wrapped set and resets when the next round begins.
func TestGroupAsleepPerRound(t *testing.T) {
	sys := &core.System{Stations: []core.Protocol{&listener{}, &listener{}, &transmitter{}}}
	wrapped, g := Wrap(sys, Params{SleepAfterIdle: 2})
	act := func(round int64) {
		for _, s := range wrapped.Stations {
			s.Act(round)
		}
	}
	act(0)
	act(1)
	if g.Asleep() != 0 {
		t.Fatalf("Asleep = %d before the idle threshold", g.Asleep())
	}
	act(2)
	if g.Asleep() != 2 {
		t.Errorf("Asleep = %d, want the two idle listeners", g.Asleep())
	}
	if g.SleepRounds() != 2 {
		t.Errorf("SleepRounds = %d, want 2", g.SleepRounds())
	}
}

// skipListener is listener with the fast-forward contract: a Skipper
// whose idle round is one listen. It counts the rounds it has been
// through, acted or skipped.
type skipListener struct {
	listener
	rounds int64
}

func (l *skipListener) Act(round int64) core.Action { l.rounds++; return core.Listen() }
func (l *skipListener) Quiescent() bool             { return len(l.queue) == 0 }
func (l *skipListener) SkipIdle(from, to int64)     { l.rounds += to - from }

// wrapSkippers wraps three skipListeners, whose constant idle round is
// three listens in a system declaring FeedbackFreeIdle, so Wrap enables
// duty-level skipping.
func wrapSkippers(t *testing.T, p Params) (*core.System, []*station, *Group) {
	t.Helper()
	const n = 3
	inner := &core.System{
		Info:             core.AlgorithmInfo{Name: "skip-listener", EnergyCap: n},
		Idle:             core.ConstIdle{Energy: n},
		FeedbackFreeIdle: true,
	}
	for range n {
		inner.Stations = append(inner.Stations, &skipListener{})
	}
	sys, g := Wrap(inner, p)
	stations := make([]*station, n)
	for i, st := range sys.Stations {
		stations[i] = st.(*station)
		if stations[i].sk == nil {
			t.Fatal("Wrap did not enable duty-level skipping")
		}
	}
	return sys, stations, g
}

// TestSkipIdleMatchesStepping: SkipIdle over a stretch that crosses
// wake rounds leaves the group's SleepRounds and Asleep, and every
// station's idle clock, budget and inner state, exactly as stepping
// Act/Observe over the same rounds does.
func TestSkipIdleMatchesStepping(t *testing.T) {
	for _, c := range []struct {
		name           string
		wake, from, to int64
	}{
		{"from-zero", 16, 0, 40},
		{"wake-every-round", 1, 5, 12},
		{"ends-on-wake", 8, 3, 17},
		{"no-wake-inside", 8, 9, 16},
		{"one-wake-round", 5, 10, 11},
		{"never-wakes", 0, 0, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := Params{SleepAfterIdle: 4, WakeEvery: c.wake}
			_, stepped, sg := wrapSkippers(t, p)
			_, skipped, kg := wrapSkippers(t, p)
			// Both sets start past their sleep threshold, as every
			// station of a quiescent system is.
			for i := range stepped {
				stepped[i].busy = c.from - 1 - p.SleepAfterIdle
				skipped[i].busy = stepped[i].busy
			}
			for r := c.from; r < c.to; r++ {
				var on []*station
				for _, s := range stepped {
					if s.Act(r).On {
						on = append(on, s)
					}
				}
				for _, s := range on {
					s.Observe(r, mac.Feedback{Kind: mac.FbSilence})
				}
			}
			for _, s := range skipped {
				s.SkipIdle(c.from, c.to)
			}
			if sg.SleepRounds() != kg.SleepRounds() || sg.Asleep() != kg.Asleep() {
				t.Errorf("SleepRounds/Asleep: stepped %d/%d, skipped %d/%d",
					sg.SleepRounds(), sg.Asleep(), kg.SleepRounds(), kg.Asleep())
			}
			for i := range stepped {
				a, b := stepped[i], skipped[i]
				ar, br := a.inner.(*skipListener).rounds, b.inner.(*skipListener).rounds
				if a.idle(c.to) != b.idle(c.to) || a.spent != b.spent || ar != br {
					t.Errorf("station %d idle/spent/inner rounds: stepped %d/%d/%d, skipped %d/%d/%d",
						i, a.idle(c.to), a.spent, ar, b.idle(c.to), b.spent, br)
				}
			}
			if !stepped[0].Quiescent() || !skipped[0].Quiescent() {
				t.Error("a station left its quiescent stretch non-quiescent")
			}
		})
	}
}

// TestWakeBreaks: the wrapped profile lets a wake round tick as the
// inner idle round unless an EnergyBudget is set, and the wrapped
// system declares FeedbackFreeIdle exactly when duty-level skipping is
// on, which needs the inner system to declare it.
func TestWakeBreaks(t *testing.T) {
	sys, _, _ := wrapSkippers(t, Params{SleepAfterIdle: 4, WakeEvery: 8})
	h := sys.Idle.(core.IdleHorizon)
	if got := h.NextIdleBreak(9); got != 16 {
		t.Errorf("NextIdleBreak(9) = %d, want 16", got)
	}
	if e, ok := h.IdleBreak(16); !ok || e != (core.IdleRound{Energy: 3}) {
		t.Errorf("IdleBreak(16) = %+v, %v; want the inner idle round, accepted", e, ok)
	}
	if !sys.FeedbackFreeIdle {
		t.Error("a skip-capable duty system does not declare FeedbackFreeIdle")
	}
	sys, _, _ = wrapSkippers(t, Params{SleepAfterIdle: 4, WakeEvery: 8, EnergyBudget: 100})
	if _, ok := sys.Idle.(core.IdleHorizon).IdleBreak(16); ok {
		t.Error("IdleBreak accepted a wake round under an EnergyBudget")
	}
	plain, _ := Wrap(&core.System{Stations: []core.Protocol{&listener{}}}, Params{SleepAfterIdle: 4})
	if plain.FeedbackFreeIdle || plain.Idle != nil {
		t.Error("a duty system over a non-Skipper declares FeedbackFreeIdle or an idle profile")
	}
	feedbackBound := &core.System{Stations: []core.Protocol{&skipListener{}}, Idle: core.ConstIdle{Energy: 1}}
	if sys, _ := Wrap(feedbackBound, Params{SleepAfterIdle: 4}); sys.FeedbackFreeIdle || sys.Idle != nil {
		t.Error("Wrap enabled duty-level skipping over an inner system without FeedbackFreeIdle")
	}
}

// scripted is the inner station of an energy-oblivious system that a
// script drives: in the rounds the script switches it on it transmits
// its front packet if it holds one and listens otherwise, and every
// other round it acts Off and keeps no trace of it. A transmission the
// script marks heard delivers the packet; any other is a collision.
type scripted struct {
	on     func(round int64) bool
	queue  []mac.Packet
	rounds int64 // rounds acted on or skipped idle
}

func (s *scripted) Inject(p mac.Packet) { s.queue = append(s.queue, p) }

func (s *scripted) Act(round int64) core.Action {
	if !s.on(round) {
		return core.Off()
	}
	s.rounds++
	if len(s.queue) > 0 {
		return core.Transmit(mac.PacketMsg(s.queue[0]))
	}
	return core.Listen()
}

func (s *scripted) Observe(round int64, fb mac.Feedback) {
	if fb.Kind == mac.FbHeard && fb.Msg.HasPacket {
		s.queue = s.queue[1:]
	}
}

func (s *scripted) QueueLen() int           { return len(s.queue) }
func (s *scripted) Quiescent() bool         { return len(s.queue) == 0 }
func (s *scripted) SkipIdle(from, to int64) { s.rounds += to - from }

// scriptRound is one round of an idle-clock script.
type scriptRound struct {
	on, inject, heard bool
}

// idleScript decodes a fuzz input: three bytes of small duty Params,
// then one round per byte (bit 0 on, bit 1 an injection, bit 2 the
// round's transmission heard). A Params that enables nothing sleeps
// after one idle round instead.
func idleScript(data []byte) (Params, []scriptRound) {
	var p Params
	if len(data) >= 3 {
		p = Params{SleepAfterIdle: int64(data[0] % 16), WakeEvery: int64(data[1] % 8), EnergyBudget: int64(data[2] % 32)}
		data = data[3:]
	}
	if !p.Enabled() {
		p.SleepAfterIdle = 1
	}
	script := make([]scriptRound, len(data))
	for i, b := range data {
		script[i] = scriptRound{on: b&1 != 0, inject: b&2 != 0, heard: b&4 != 0}
	}
	return p, script
}

// encodeScript is idleScript's inverse, for seeding the fuzzer.
func encodeScript(p Params, script []scriptRound) []byte {
	data := []byte{byte(p.SleepAfterIdle), byte(p.WakeEvery), byte(p.EnergyBudget)}
	for _, r := range script {
		var b byte
		if r.on {
			b |= 1
		}
		if r.inject {
			b |= 2
		}
		if r.heard {
			b |= 4
		}
		data = append(data, b)
	}
	return data
}

// wrapScripted wraps one scripted station in a skip-capable system
// whose awake set is the script's on rounds.
func wrapScripted(t *testing.T, p Params, script []scriptRound) (*station, *Group) {
	t.Helper()
	inner := &scripted{on: func(r int64) bool { return r < int64(len(script)) && script[r].on }}
	sys, g := Wrap(&core.System{
		Info:             core.AlgorithmInfo{Name: "scripted", EnergyCap: 1},
		Stations:         []core.Protocol{inner},
		Idle:             core.ConstIdle{},
		FeedbackFreeIdle: true,
	}, p)
	s := sys.Stations[0].(*station)
	if s.sk == nil {
		t.Fatal("Wrap did not enable duty-level skipping")
	}
	return s, g
}

// runScript plays script on a wrapped station stepped through every
// round and on one the simulator skips in its Off rounds, as a sparse
// sweep does, and requires the same action every round, the same idle
// clock after it, and the same Quiescent answer wherever the simulator
// would ask (after a round ending with an empty queue). A skipped
// station whose group sat that round out reads a stale round and may
// answer false, never a wrong true. It returns both SleepRounds totals.
func runScript(t *testing.T, p Params, script []scriptRound) (stepped, skipped int64) {
	t.Helper()
	a, ag := wrapScripted(t, p, script)
	b, bg := wrapScripted(t, p, script)
	for i, sr := range script {
		r := int64(i)
		if sr.inject {
			for _, s := range []*station{a, b} {
				s.Inject(mac.Packet{ID: r, Injected: r})
			}
		}
		x := a.Act(r)
		var y core.Action
		if sr.on {
			y = b.Act(r)
		}
		if x.On != y.On || x.Transmit != y.Transmit {
			t.Fatalf("round %d: stepped %+v, skipped %+v", r, x, y)
		}
		if x.On {
			fb := mac.Feedback{Kind: mac.FbSilence}
			if x.Transmit {
				fb.Kind = mac.FbCollision
				if sr.heard {
					fb = mac.Feedback{Kind: mac.FbHeard, Msg: x.Msg}
				}
			}
			a.Observe(r, fb)
			b.Observe(r, fb)
		}
		if ai, bi := a.idle(r+1), b.idle(r+1); ai != bi {
			t.Fatalf("round %d: idle clock stepped %d, skipped %d", r+1, ai, bi)
		}
		if a.QueueLen() == 0 {
			aq, bq := a.Quiescent(), b.Quiescent()
			if (sr.on && aq != bq) || (bq && !aq) {
				t.Fatalf("after round %d (on %v): Quiescent stepped %v, skipped %v", r, sr.on, aq, bq)
			}
		}
	}
	if ag.SleepRounds() != bg.SleepRounds() {
		t.Fatalf("SleepRounds: stepped %d, skipped %d", ag.SleepRounds(), bg.SleepRounds())
	}
	return ag.SleepRounds(), bg.SleepRounds()
}

// offStretchCases are the Off-round skips the stamp clock must survive,
// each a script under one Params: a stretch of Off rounds after an
// empty start, below the sleep threshold, crossing it, deep asleep,
// and with a packet held through it, each followed by rounds on every
// tenth round in which the suppressed listens show any clock error.
func offStretchCases() []struct {
	name   string
	p      Params
	script []scriptRound
} {
	p := Params{SleepAfterIdle: 4, WakeEvery: 3}
	// build returns a script of n rounds, on every tenth round (≡ 9) and
	// in the listed ones, with the listed injections and every
	// transmission heard except in the rounds listed as collisions.
	build := func(n int, on, inject, collide []int) []scriptRound {
		s := make([]scriptRound, n)
		for i := range s {
			s[i] = scriptRound{on: i%10 == 9, heard: true}
		}
		for _, r := range on {
			s[r].on = true
		}
		for _, r := range inject {
			s[r].inject = true
		}
		for _, r := range collide {
			s[r].heard = false
		}
		return s
	}
	return []struct {
		name   string
		p      Params
		script []scriptRound
	}{
		{"from-zero", p, build(80, nil, nil, nil)},
		{"below-threshold", p, build(80, []int{8, 12}, []int{8}, nil)},
		{"crosses-threshold", p, build(80, []int{7, 8}, []int{7}, nil)},
		{"asleep", p, build(90, []int{13, 14}, nil, nil)},
		{"queued", p, build(80, []int{2, 3}, []int{2}, []int{2, 3, 9})},
	}
}

// TestSkipOffMatchesStepping: a wrapped station the simulator skips in
// its Off rounds acts, sleeps and answers Quiescent as one stepped
// through them does: the idle clock is a round stamp, so an Off stretch
// leaves nothing to replay — with an empty queue, a held packet, the
// sleep threshold crossed inside the stretch, and from round 0.
func TestSkipOffMatchesStepping(t *testing.T) {
	for _, c := range offStretchCases() {
		t.Run(c.name, func(t *testing.T) {
			if stepped, _ := runScript(t, c.p, c.script); stepped == 0 {
				t.Error("the script never suppressed a listen")
			}
		})
	}
}

// FuzzIdleClock: TestSkipOffMatchesStepping over any script and small
// Params, seeded with its cases.
func FuzzIdleClock(f *testing.F) {
	for _, c := range offStretchCases() {
		f.Add(encodeScript(c.p, c.script))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Three Params bytes and at most 128 rounds, several times any
		// threshold the Params can set. Longer inputs make minimizing
		// each new one take seconds: its cost grows with the square of
		// the input's length.
		data = data[:min(len(data), 3+128)]
		p, script := idleScript(data)
		runScript(t, p, script)
	})
}

// firstAwake is an awake set naming station 0 every round.
type firstAwake struct{}

func (firstAwake) AppendAwake(t int64, buf []int) []int { return append(buf, 0) }

// TestWrapPassesAwakeThrough: the wrapped system names the inner awake
// set whatever its stations, and none when the inner system has none.
func TestWrapPassesAwakeThrough(t *testing.T) {
	p := Params{SleepAfterIdle: 4}
	inner := &core.System{Stations: []core.Protocol{&listener{}, &skipListener{}}, Awake: firstAwake{}}
	if sys, _ := Wrap(inner, p); sys.Awake != inner.Awake {
		t.Error("Wrap dropped the inner awake set")
	}
	inner.Awake = nil
	if sys, _ := Wrap(inner, p); sys.Awake != nil {
		t.Error("Wrap named an awake set the inner system lacks")
	}
}
