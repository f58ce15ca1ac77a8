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
	for round := int64(1); round <= 20; round++ {
		a := s.Act(round)
		// idle hits 3 at the end of round 3, so round 4 is the first
		// suppressed listen; multiples of 5 stay awake.
		wantOn := round <= 3 || round%5 == 0
		if a.On != wantOn {
			t.Errorf("round %d: On = %v, want %v", round, a.On, wantOn)
		}
	}
	if g.SleepRounds() != 13 {
		t.Errorf("SleepRounds = %d, want 13 (rounds 4..20 minus the four wake peeks)", g.SleepRounds())
	}
}

// TestInjectResetsIdle: traffic wakes a sleeping station that very
// round, and the idle clock restarts from its queue going empty again.
func TestInjectResetsIdle(t *testing.T) {
	s, _ := wrapOne(t, Params{SleepAfterIdle: 2})
	for round := int64(1); round <= 4; round++ {
		if a := s.Act(round); a.On != (round <= 2) {
			t.Fatalf("round %d: On = %v during warm-up", round, a.On)
		}
	}
	s.Inject(mac.Packet{ID: 1})
	if a := s.Act(5); !a.On {
		t.Error("round 5: injection did not wake the station")
	}
	// The queue never drains (the listener keeps its packets), so the
	// station stays awake indefinitely.
	for round := int64(6); round <= 12; round++ {
		if a := s.Act(round); !a.On {
			t.Errorf("round %d: loaded station went to sleep", round)
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
	act(1)
	act(2)
	if g.Asleep() != 0 {
		t.Fatalf("Asleep = %d before the idle threshold", g.Asleep())
	}
	act(3)
	if g.Asleep() != 2 {
		t.Errorf("Asleep = %d, want the two idle listeners", g.Asleep())
	}
	if g.SleepRounds() != 2 {
		t.Errorf("SleepRounds = %d, want 2", g.SleepRounds())
	}
}

// skipListener is listener with the fast-forward contract: a
// feedback-free Skipper whose idle round is one listen. It counts the
// rounds it has been through, acted or skipped.
type skipListener struct {
	listener
	rounds int64
}

func (l *skipListener) Act(round int64) core.Action { l.rounds++; return core.Listen() }
func (l *skipListener) Quiescent() bool             { return len(l.queue) == 0 }
func (l *skipListener) SkipIdle(from, to int64)     { l.rounds += to - from }
func (l *skipListener) FeedbackFreeIdle() bool      { return true }

// wrapSkippers wraps three skipListeners, whose constant idle round is
// three listens, so Wrap enables duty-level skipping.
func wrapSkippers(t *testing.T, p Params) (*core.System, []*station, *Group) {
	t.Helper()
	const n = 3
	inner := &core.System{
		Info: core.AlgorithmInfo{Name: "skip-listener", EnergyCap: n},
		Idle: core.ConstIdle{Energy: n},
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
				stepped[i].idle, skipped[i].idle = p.SleepAfterIdle, p.SleepAfterIdle
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
				if a.idle != b.idle || a.spent != b.spent || ar != br {
					t.Errorf("station %d idle/spent/inner rounds: stepped %d/%d/%d, skipped %d/%d/%d",
						i, a.idle, a.spent, ar, b.idle, b.spent, br)
				}
			}
		})
	}
}

// TestWakeBreaks: the wrapped profile lets a wake round tick as the
// inner idle round unless an EnergyBudget is set, and the stations
// declare feedback-free idling exactly when duty-level skipping is on.
func TestWakeBreaks(t *testing.T) {
	sys, stations, _ := wrapSkippers(t, Params{SleepAfterIdle: 4, WakeEvery: 8})
	h := sys.Idle.(core.IdleHorizon)
	if got := h.NextIdleBreak(9); got != 16 {
		t.Errorf("NextIdleBreak(9) = %d, want 16", got)
	}
	if e, ok := h.IdleBreak(16); !ok || e != (core.IdleRound{Energy: 3}) {
		t.Errorf("IdleBreak(16) = %+v, %v; want the inner idle round, accepted", e, ok)
	}
	if !stations[0].FeedbackFreeIdle() {
		t.Error("a skip-capable duty station does not declare FeedbackFreeIdle")
	}
	sys, _, _ = wrapSkippers(t, Params{SleepAfterIdle: 4, WakeEvery: 8, EnergyBudget: 100})
	if _, ok := sys.Idle.(core.IdleHorizon).IdleBreak(16); ok {
		t.Error("IdleBreak accepted a wake round under an EnergyBudget")
	}
	s, _ := wrapOne(t, Params{SleepAfterIdle: 4})
	if s.FeedbackFreeIdle() {
		t.Error("a duty station over a non-Skipper declares FeedbackFreeIdle")
	}
}

// offListener is skipListener in an energy-oblivious system: it is
// scheduled on only in the rounds ≡ 9 mod 10, where it listens, and
// counts its Off rounds, stepped or skipped (mac.OffSkipper).
type offListener struct {
	skipListener
	offs int64
}

func offListenerOn(round int64) bool { return round%10 == 9 }

func (l *offListener) Act(round int64) core.Action {
	if !offListenerOn(round) {
		l.offs++
		return core.Off()
	}
	return l.skipListener.Act(round)
}

func (l *offListener) SkipOff(from, to int64) { l.offs += to - from }

// offAwake is the offListeners' awake set.
type offAwake struct{ n int }

func (a offAwake) AppendAwake(t int64, buf []int) []int {
	if offListenerOn(t) {
		for i := range a.n {
			buf = append(buf, i)
		}
	}
	return buf
}

// wrapOffListener wraps one offListener under p. The inner system
// declares a constant silent idle profile only so that Wrap enables
// duty-level skipping, which Quiescent needs; nothing runs it.
func wrapOffListener(t *testing.T, p Params) (*station, *Group) {
	t.Helper()
	inner := &core.System{
		Info:     core.AlgorithmInfo{Name: "off-listener", EnergyCap: 1},
		Stations: []core.Protocol{&offListener{}},
		Idle:     core.ConstIdle{},
		Awake:    offAwake{n: 1},
	}
	sys, g := Wrap(inner, p)
	if sys.Awake != inner.Awake {
		t.Fatal("Wrap did not pass the inner awake set through")
	}
	s := sys.Stations[0].(*station)
	if s.sk == nil || s.off == nil {
		t.Fatal("Wrap did not enable duty-level skipping and Off skipping")
	}
	return s, g
}

// TestSkipOffMatchesStepping: SkipOff over rounds the inner protocol is
// scheduled off leaves the idle clock, Quiescent and the inner state
// exactly as stepping Act over them does, and so the same listens are
// suppressed afterwards — with an empty queue, a held packet, a range
// crossing the sleep threshold, and one starting at round 0.
func TestSkipOffMatchesStepping(t *testing.T) {
	p := Params{SleepAfterIdle: 4, WakeEvery: 3}
	for _, c := range []struct {
		name     string
		from, to int64 // rounds the inner protocol is scheduled off
		idle     int64 // the idle clock at from
		queued   bool  // the inner queue holds a packet through the range
	}{
		{"from-zero", 0, 9, 0, false},
		{"below-threshold", 10, 12, 0, false},
		{"crosses-threshold", 10, 19, 2, false},
		{"asleep", 20, 29, 30, false},
		{"queued", 10, 19, 7, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			stepped, sg := wrapOffListener(t, p)
			skipped, kg := wrapOffListener(t, p)
			for _, s := range []*station{stepped, skipped} {
				s.idle = c.idle
				if c.queued {
					s.inner.Inject(mac.Packet{ID: 1})
				}
			}
			for r := c.from; r < c.to; r++ {
				if stepped.Act(r).On {
					t.Fatalf("round %d: the inner protocol is scheduled on", r)
				}
			}
			skipped.SkipOff(c.from, c.to)
			a, b := stepped, skipped
			ao, bo := a.inner.(*offListener).offs, b.inner.(*offListener).offs
			if a.idle != b.idle || a.Quiescent() != b.Quiescent() || ao != bo {
				t.Fatalf("idle/quiescent/inner offs: stepped %d/%v/%d, skipped %d/%v/%d",
					a.idle, a.Quiescent(), ao, b.idle, b.Quiescent(), bo)
			}
			// The packet leaves; both go on with the same actions.
			for _, s := range []*station{stepped, skipped} {
				s.inner.(*offListener).queue = nil
			}
			for r := c.to; r < c.to+60; r++ {
				if x, y := stepped.Act(r).On, skipped.Act(r).On; x != y {
					t.Fatalf("round %d: On stepped %v, skipped %v", r, x, y)
				}
			}
			if sg.SleepRounds() != kg.SleepRounds() || sg.SleepRounds() == 0 {
				t.Errorf("SleepRounds: stepped %d, skipped %d, want equal and nonzero", sg.SleepRounds(), kg.SleepRounds())
			}
		})
	}
}

// TestWrapPassesAwakeThrough: the wrapped system names the inner awake
// set only when every inner station can skip its Off rounds.
func TestWrapPassesAwakeThrough(t *testing.T) {
	p := Params{SleepAfterIdle: 4}
	inner := &core.System{
		Stations: []core.Protocol{&offListener{}, &listener{}},
		Awake:    offAwake{n: 2},
	}
	if sys, _ := Wrap(inner, p); sys.Awake != nil {
		t.Error("Wrap passed the awake set through over a station without SkipOff")
	}
	inner.Stations[1] = &offListener{}
	if sys, _ := Wrap(inner, p); sys.Awake != inner.Awake {
		t.Error("Wrap dropped the awake set of OffSkipper stations")
	}
}
