package core

import (
	"slices"
	"testing"

	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// sleeper is a toy mac.Skipper for the IdleHorizon contract. While
// empty it switches on only at multiples of w (its wake rounds) and
// listens; a packet is transmitted, to itself, the round it arrives. It
// counts the rounds it has been through and its listens, and — unless
// ff marks it a feedback-free idler, as its system then declares — the
// collisions it heard, which SkipIdle cannot replay.
type sleeper struct {
	w                           int64
	ff                          bool
	queue                       []mac.Packet
	acts                        []int64 // rounds Act ran at
	rounds, listens, collisions int64
}

func (s *sleeper) Inject(p mac.Packet) { s.queue = append(s.queue, p) }

func (s *sleeper) Act(t int64) Action {
	s.acts = append(s.acts, t)
	s.rounds++
	if len(s.queue) > 0 {
		p := s.queue[0]
		s.queue = s.queue[1:]
		return Transmit(mac.PacketMsg(p))
	}
	if t%s.w == 0 {
		s.listens++
		return Listen()
	}
	return Off()
}

func (s *sleeper) Observe(t int64, fb mac.Feedback) {
	if fb.Kind == mac.FbCollision && !s.ff {
		s.collisions++
	}
}

func (s *sleeper) QueueLen() int   { return len(s.queue) }
func (s *sleeper) Quiescent() bool { return len(s.queue) == 0 }

func (s *sleeper) SkipIdle(from, to int64) {
	s.rounds += to - from
	s.listens += (to+s.w-1)/s.w - (from+s.w-1)/s.w // multiples of w in [from, to)
}

// wakeProfile is the sleepers' idle profile: silent at zero energy,
// broken at every multiple of w, where all n sleepers listen. accept
// says whether IdleBreak lets the engine tick a break.
type wakeProfile struct {
	w      int64
	n      int
	accept bool
}

func (p wakeProfile) AppendIdleCycle(from int64, buf []IdleRound) []IdleRound {
	return append(buf, IdleRound{})
}

func (p wakeProfile) NextIdleBreak(from int64) int64 { return from + (p.w-from%p.w)%p.w }

func (p wakeProfile) IdleBreak(t int64) (IdleRound, bool) {
	return IdleRound{Energy: p.n}, p.accept
}

// scheduled injects into the listed stations at the listed rounds and
// exposes them as its event horizon, so idle stretches between them
// are span-skipped.
type scheduled map[int64]int

func (a scheduled) InjectAppend(t int64, buf []Injection) []Injection {
	if st, ok := a[t]; ok {
		buf = append(buf, Injection{Station: st, Dest: st})
	}
	return buf
}

func (a scheduled) NextEventRound(from int64) int64 { return nextIn(a, from) }
func (a scheduled) SkipIdle(from, to int64)         {}

// nextIn returns the least key of m that is >= from, or -1.
func nextIn[V any](m map[int64]V, from int64) int64 {
	next := int64(-1)
	for r := range m {
		if r >= from && (next < 0 || r < next) {
			next = r
		}
	}
	return next
}

// jamSet is a Disruption jamming exactly the rounds it holds.
type jamSet map[int64]bool

func (j jamSet) Disrupt(t int64) Disrupt {
	if j[t] {
		return DisruptJam
	}
	return 0
}

func (j jamSet) NextDisrupt(from int64) int64 { return nextIn(j, from) }

// breakCase is one run of n sleepers waking every w rounds.
type breakCase struct {
	w, rounds int64
	accept    bool // IdleBreak accepts
	ff        bool // the sleepers are feedback-free idlers, and their system says so
	inject    scheduled
	jam       jamSet
}

func (c breakCase) run(t *testing.T, noSkip bool) ([]*sleeper, metrics.Counters) {
	t.Helper()
	const n = 3
	sleepers := make([]*sleeper, n)
	protos := make([]Protocol, n)
	for i := range sleepers {
		sleepers[i] = &sleeper{w: c.w, ff: c.ff}
		protos[i] = sleepers[i]
	}
	sys := sys(n, protos...)
	sys.Idle = wakeProfile{w: c.w, n: n, accept: c.accept}
	sys.FeedbackFreeIdle = c.ff
	opt := Options{NoSkip: noSkip}
	if c.jam != nil {
		opt.Disruption = c.jam
	}
	sim := NewSim(sys, c.inject, opt)
	if sim.SkipCapable() == noSkip {
		t.Fatalf("SkipCapable = %v with NoSkip %v", sim.SkipCapable(), noSkip)
	}
	if err := sim.Run(c.rounds); err != nil {
		t.Fatal(err)
	}
	return sleepers, sim.Tracker().Counters
}

// check runs c with the engine on and off, requires the same tracker
// counters and station state from both, and returns the rounds at which
// the engine ran each station's Act.
func (c breakCase) check(t *testing.T) [][]int64 {
	t.Helper()
	on, onCtr := c.run(t, false)
	off, offCtr := c.run(t, true)
	if onCtr != offCtr {
		t.Errorf("counters differ from NoSkip:\nskip-on: %+v\nnoskip:  %+v", onCtr, offCtr)
	}
	acts := make([][]int64, len(on))
	for i := range on {
		a, b := on[i], off[i]
		if a.rounds != b.rounds || a.listens != b.listens || a.collisions != b.collisions {
			t.Errorf("station %d: rounds/listens/collisions %d/%d/%d, NoSkip %d/%d/%d",
				i, a.rounds, a.listens, a.collisions, b.rounds, b.listens, b.collisions)
		}
		acts[i] = a.acts
	}
	return acts
}

// wantActs requires every station's Act to have run at exactly the
// given rounds.
func wantActs(t *testing.T, acts [][]int64, want ...int64) {
	t.Helper()
	for i, a := range acts {
		if !slices.Equal(a, want) {
			t.Errorf("station %d acted at rounds %v, want %v", i, a, want)
		}
	}
}

// TestIdleBreakAccepted: an accepted break ticks in O(1) — no station
// acts after round 0, the one round before quiescence — and leaves the
// counters and station state NoSkip's sweeps do.
func TestIdleBreakAccepted(t *testing.T) {
	c := breakCase{w: 8, rounds: 61, accept: true}
	wantActs(t, c.check(t), 0)
}

// TestIdleBreakDeclined: a declined break runs exactly one sweep, at
// the break round, and the system re-enters quiescence after it.
func TestIdleBreakDeclined(t *testing.T) {
	c := breakCase{w: 8, rounds: 41}
	wantActs(t, c.check(t), 0, 8, 16, 24, 32, 40)
}

// TestIdleBreakWithInjection: an injection landing on an accepted break
// forces the sweep; later breaks tick again.
func TestIdleBreakWithInjection(t *testing.T) {
	c := breakCase{w: 8, rounds: 41, accept: true, inject: scheduled{16: 1}}
	wantActs(t, c.check(t), 0, 16)
}

// TestIdleBreakJammed: a jammed accepted break is swept when its
// listeners would count the collision, and ticked when they are
// feedback-free idlers. A jammed round between breaks has no listener
// and always ticks.
func TestIdleBreakJammed(t *testing.T) {
	jam := jamSet{13: true, 16: true}
	c := breakCase{w: 8, rounds: 41, accept: true, jam: jam}
	wantActs(t, c.check(t), 0, 16)
	c.ff = true
	wantActs(t, c.check(t), 0)
}
