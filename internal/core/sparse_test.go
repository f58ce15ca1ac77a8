package core

import (
	"slices"
	"testing"

	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// napSched is a toy awake set of period napPeriod over n stations:
// station i may switch on in round t when (t+i) mod napPeriod is 0 or
// 2, so a round's set holds a varying number of stations.
type napSched struct{ n int }

const napPeriod = 5

func (s napSched) on(i int, t int64) bool {
	r := (t + int64(i)) % napPeriod
	return r == 0 || r == 2
}

func (s napSched) AppendAwake(t int64, buf []int) []int {
	for i := 0; i < s.n; i++ {
		if s.on(i, t) {
			buf = append(buf, i)
		}
	}
	return buf
}

// AppendIdleCycle is the idle profile of a system of napper stations:
// every awake station listens in silence.
func (s napSched) AppendIdleCycle(from int64, buf []IdleRound) []IdleRound {
	for t := from; t < from+napPeriod; t++ {
		e := 0
		for i := 0; i < s.n; i++ {
			if s.on(i, t) {
				e++
			}
		}
		buf = append(buf, IdleRound{Energy: e})
	}
	return buf
}

// offsBefore returns how many of station i's rounds before t are Off:
// two of every napPeriod are on.
func (s napSched) offsBefore(i int, t int64) int64 {
	q := t / napPeriod
	offs := q * (napPeriod - 2)
	for r := q * napPeriod; r < t; r++ {
		if !s.on(i, r) {
			offs++
		}
	}
	return offs
}

// napper is a toy station of an energy-oblivious system. Its Off rounds
// leave no state behind, as Awaker requires, but its behavior depends
// on them through the round: it transmits its front packet only after
// an even number of Off rounds (napSched.offsBefore), so a station
// asked in the wrong rounds changes the run. It records every round it
// went through, by Act or SkipIdle, and flags a round gone through
// twice and an on round passed over; acts counts its Act calls. Both
// are instruments only, never read by its behavior.
type napper struct {
	id    int
	sched napSched
	queue []mac.Packet
	sent  bool

	next                      int64 // the first round it has not gone through
	acts, listens, sends, bad int64
}

// behind reports whether an on round before t has not been gone
// through.
func (s *napper) behind(t int64) bool {
	for r := s.next; r < t; r++ {
		if s.sched.on(s.id, r) {
			return true
		}
	}
	return false
}

func (s *napper) through(from, to int64) {
	if from < s.next || s.behind(from) {
		s.bad++
	}
	s.next = to
}

func (s *napper) Inject(p mac.Packet) { s.queue = append(s.queue, p) }

func (s *napper) Act(t int64) Action {
	s.through(t, t+1)
	s.acts++
	s.sent = false
	if !s.sched.on(s.id, t) {
		return Off()
	}
	if len(s.queue) > 0 && s.sched.offsBefore(s.id, t)%2 == 0 {
		s.sent = true
		return Transmit(mac.PacketMsg(s.queue[0]))
	}
	s.listens++
	return Listen()
}

// Observe retires a packet heard uncontended, as a direct algorithm's
// transmitter does whether or not its destination was on.
func (s *napper) Observe(t int64, fb mac.Feedback) {
	if s.sent && fb.Kind == mac.FbHeard {
		s.queue = s.queue[1:]
		s.sends++
	}
	s.sent = false
}

func (s *napper) QueueLen() int   { return len(s.queue) }
func (s *napper) Quiescent() bool { return len(s.queue) == 0 }

func (s *napper) SkipIdle(from, to int64) {
	s.through(from, to)
	for t := from; t < to; t++ {
		if s.sched.on(s.id, t) {
			s.listens++
		}
	}
}

// napInjections inject at the listed rounds; each entry is a list of
// (station, dest) pairs. Its event horizon lets quiet stretches span.
type napInjections map[int64][][2]int

func (a napInjections) InjectAppend(t int64, buf []Injection) []Injection {
	for _, in := range a[t] {
		buf = append(buf, Injection{Station: in[0], Dest: in[1]})
	}
	return buf
}

func (a napInjections) NextEventRound(from int64) int64 { return nextIn(a, from) }
func (a napInjections) SkipIdle(from, to int64)         {}

// napCase runs n nappers against inj in Run chunks of the given sizes.
type napCase struct {
	n      int
	idle   bool // declare the idle profile, so the sim may go quiescent
	inj    napInjections
	chunks []int64
}

func (c napCase) build(opt Options) (*Sim, []*napper) {
	sch := napSched{n: c.n}
	naps := make([]*napper, c.n)
	protos := make([]Protocol, c.n)
	for i := range naps {
		naps[i] = &napper{id: i, sched: sch}
		protos[i] = naps[i]
	}
	sys := sys(c.n, protos...)
	sys.Info.Direct = true
	sys.Awake = sch
	if c.idle {
		sys.Idle = sch
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 3
	tr.TrackStations(c.n)
	opt.Tracker = tr
	return NewSim(sys, c.inj, opt), naps
}

// check runs c sparsely and under NoSkip in lockstep chunks, and
// requires the same counters, per-station peaks and station state at
// every chunk boundary, no on round before it passed over, and no round
// gone through twice. It returns the final counters and whether the
// sparse sim was quiescent at some boundary.
func (c napCase) check(t *testing.T) (ctr metrics.Counters, wentQuiet bool) {
	t.Helper()
	sp, spNaps := c.build(Options{})
	full, fullNaps := c.build(Options{NoSkip: true})
	if !sp.Sparse() || full.Sparse() {
		t.Fatalf("Sparse() = %v, NoSkip %v; want true, false", sp.Sparse(), full.Sparse())
	}
	for _, m := range c.chunks {
		if err := sp.Run(m); err != nil {
			t.Fatal(err)
		}
		if err := full.Run(m); err != nil {
			t.Fatal(err)
		}
		wentQuiet = wentQuiet || sp.Quiescent()
		r := sp.Round()
		if a, b := sp.Tracker().Counters, full.Tracker().Counters; a != b {
			t.Fatalf("round %d: counters differ from NoSkip:\nsparse: %+v\nnoskip: %+v", r, a, b)
		}
		if a, b := sp.Tracker().StationMaxQueues(), full.Tracker().StationMaxQueues(); !slices.Equal(a, b) {
			t.Fatalf("round %d: station peaks %v, NoSkip %v", r, a, b)
		}
		for i, a := range spNaps {
			b := fullNaps[i]
			if a.behind(r) || a.bad != 0 || b.bad != 0 {
				t.Fatalf("round %d: station %d went through rounds to %d with %d bad rounds (NoSkip: %d)", r, i, a.next, a.bad, b.bad)
			}
			if a.listens != b.listens || a.sends != b.sends || !slices.Equal(a.queue, b.queue) {
				t.Fatalf("round %d: station %d listens/sends %d/%d queue %v, NoSkip %d/%d queue %v",
					r, i, a.listens, a.sends, a.queue, b.listens, b.sends, b.queue)
			}
		}
	}
	return sp.Tracker().Counters, wentQuiet
}

// napTraffic injects into stations while they are asleep and leaves
// them holding packets across their Off rounds, addresses packets to
// stations that are off when they are heard (drops), and leaves quiet
// stretches between bursts.
var napTraffic = napInjections{
	1:   {{1, 2}},
	3:   {{4, 0}, {4, 5}, {2, 1}},
	4:   {{0, 3}},
	9:   {{5, 5}, {3, 3}},
	30:  {{2, 4}, {1, 1}},
	31:  {{1, 0}},
	77:  {{0, 5}},
	150: {{3, 2}, {3, 4}, {5, 1}},
	151: {{4, 4}},
	400: {{2, 0}},
}

// TestSparseMatchesNoSkip: a sparse sweep over an awake set that
// varies round to round, without and with the quiescence engine, must
// leave the counters, the per-station peaks and every station's state
// exactly as the full sweep does at every Run boundary, Settle mid-run
// included, though it never asks a station about its Off rounds.
func TestSparseMatchesNoSkip(t *testing.T) {
	chunks := []int64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	t.Run("busy", func(t *testing.T) {
		ctr, _ := napCase{n: 6, inj: napTraffic, chunks: chunks}.check(t)
		if ctr.Delivered == 0 || ctr.Dropped == 0 || ctr.CollisionRounds == 0 {
			t.Errorf("traffic lacks a delivery, a drop or a collision: %+v", ctr)
		}
	})
	t.Run("quiescent", func(t *testing.T) {
		if _, quiet := (napCase{n: 6, idle: true, inj: napTraffic, chunks: chunks}).check(t); !quiet {
			t.Error("the sparse sim never went quiescent at a Run boundary")
		}
	})
	t.Run("one-run", func(t *testing.T) {
		napCase{n: 6, idle: true, inj: napTraffic, chunks: []int64{609}}.check(t)
	})
}

// TestSparseSkipsAsleepStations: a sparse round runs Act only on its
// awake stations, so over 40 rounds each station Acts in its 16
// scheduled ones (the full sweep in all 40), and no other round
// reaches it at all.
func TestSparseSkipsAsleepStations(t *testing.T) {
	c := napCase{n: 6, inj: napTraffic}
	for _, tc := range []struct {
		opt  Options
		want int64
	}{{Options{}, 16}, {Options{NoSkip: true}, 40}} {
		sim, naps := c.build(tc.opt)
		if err := sim.Run(40); err != nil {
			t.Fatal(err)
		}
		for i, s := range naps {
			if s.acts != tc.want || s.behind(40) || s.bad != 0 {
				t.Errorf("NoSkip %v: station %d acted %d times, through round %d with %d bad rounds; want %d acts",
					tc.opt.NoSkip, i, s.acts, s.next, s.bad, tc.want)
			}
		}
	}
}

// TestSparseOnlyWithoutValidators: the sparse sweep engages only where
// the skip engine could — no validator, NoSkip off, no adaptive hook —
// and on a system that declares an awake set.
func TestSparseOnlyWithoutValidators(t *testing.T) {
	c := napCase{n: 6}
	for _, tc := range []struct {
		name string
		opt  Options
		want bool
	}{
		{"lenient", Options{}, true},
		{"strict", Options{Strict: true}, false},
		{"check-every", Options{CheckEvery: 7}, false},
		{"traced", Options{Tracer: nopTracer{}}, false},
		{"force-checked", Options{ForceChecked: true}, false},
		{"noskip", Options{NoSkip: true}, false},
	} {
		if sim, _ := c.build(tc.opt); sim.Sparse() != tc.want {
			t.Errorf("%s: Sparse() = %v, want %v", tc.name, sim.Sparse(), tc.want)
		}
	}
	sch := napSched{n: 2}
	pair := &System{Info: AlgorithmInfo{EnergyCap: 2}, Stations: []Protocol{&napper{sched: sch}, &napper{id: 1, sched: sch}}, Awake: sch}
	if NewSim(pair, roundWatcher{}, Options{}).Sparse() {
		t.Error("a RoundObserver adversary left the sim sparse")
	}
	pair.Awake = nil
	if NewSim(pair, nil, Options{}).Sparse() {
		t.Error("a system without an awake set went sparse")
	}
}

type nopTracer struct{}

func (nopTracer) TraceRound(int64, []Action, mac.Feedback, []mac.Packet) {}

type roundWatcher struct{}

func (roundWatcher) InjectAppend(t int64, buf []Injection) []Injection { return buf }
func (roundWatcher) ObserveRound(int64, []bool)                        {}
