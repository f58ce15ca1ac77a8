package broadcast

import (
	"math/rand"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
)

var (
	silence = mac.Feedback{Kind: mac.FbSilence}
	heard   = mac.Feedback{Kind: mac.FbHeard, Msg: mac.PacketMsg(mac.Packet{})}
)

// heardBig is the feedback of an MBTF packet carrying the given big bit.
func heardBig(big bool) mac.Feedback {
	ctrl := mac.MakeControl(1)
	ctrl.SetBit(0, big)
	return mac.Feedback{Kind: mac.FbHeard, Msg: mac.Message{HasPacket: true, Ctrl: ctrl}}
}

func sameToken(a, b *Replica) bool {
	ah, ap := a.Token()
	bh, bp := b.Token()
	return ah == bh && ap == bp
}

func TestRingTokenCycle(t *testing.T) {
	r := newRing([]int{4, 7, 9})
	if r.holder() != 4 || r.phase != 0 {
		t.Fatalf("fresh ring: holder=%d phase=%d", r.holder(), r.phase)
	}
	// Three passes complete a phase.
	for i, want := range []int{7, 9} {
		r.pass()
		if r.holder() != want || r.phase != 0 {
			t.Errorf("after %d passes: holder=%d phase=%d, want %d in phase 0", i+1, r.holder(), r.phase, want)
		}
	}
	r.pass()
	if r.phase != 1 || r.holder() != 4 {
		t.Errorf("after cycle: phase=%d holder=%d", r.phase, r.holder())
	}
}

func TestRingHeardDoesNotCountTowardPhase(t *testing.T) {
	for _, kind := range []Kind{RRW, OFRRW} {
		r := NewReplica(kind, 0, []int{0, 1}, 2)
		r.Observe(0, silence)
		r.Observe(1, heard)
		r.Observe(2, heard)
		if h, ph := r.Token(); h != 1 || ph != 0 {
			t.Errorf("kind %d: heard rounds moved the token: holder=%d phase=%d", kind, h, ph)
		}
		r.Observe(3, silence)
		if _, ph := r.Token(); ph != 1 {
			t.Errorf("kind %d: second silence should end the phase", kind)
		}
	}
}

func TestRingReplicaEquality(t *testing.T) {
	members := []int{0, 1, 2}
	a, b := NewReplica(OFRRW, 0, members, 3), NewReplica(OFRRW, 1, members, 3)
	ops := []bool{true, false, true, true, false, true, true, true}
	for r, quiet := range ops {
		fb := heard
		if quiet {
			fb = silence
		}
		a.Observe(int64(r), fb)
		b.Observe(int64(r), fb)
		if !sameToken(&a, &b) {
			t.Fatal("replicas diverged")
		}
	}
	b.Observe(int64(len(ops)), silence)
	if sameToken(&a, &b) {
		t.Error("token comparison missed divergence")
	}
}

func TestEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty ring did not panic")
		}
	}()
	newRing(nil)
}

// TestPhaseTailMatchesTags drives phaseTail through random pushes,
// phase advances (single and skipped), front checks and old-front pops
// (which phaseTail is not told about), against a queue of per-packet
// phase tags — the representation it replaces.
func TestPhaseTailMatchesTags(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tail phaseTail
		var tags []int64 // the queue, front first: each packet's push phase
		phase := int64(0)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				tail.pushed(phase)
				tags = append(tags, phase)
			case 1:
				if rng.Intn(4) == 0 {
					phase += 1 + rng.Int63n(5)
				} else {
					phase++
				}
			default:
				if len(tags) == 0 {
					continue
				}
				want := tags[0] >= phase
				if got := tail.frontIsNew(phase, len(tags)); got != want {
					t.Fatalf("seed %d op %d: frontIsNew = %v, tags %v at phase %d", seed, op, got, tags, phase)
				}
				if !want {
					tags = tags[1:]
				}
			}
		}
	}
}

// TestSkipIdleMatchesSilences: SkipIdle over [from, to) leaves every
// protocol's replica with the token of one given a silence in each of
// its on-duty rounds there, for one-round activations (k-Clique,
// k-Subsets: every = 1) and δ-round ones (k-Cycle: every > 1), over
// ranges from 0, inside one activation, across whole cycles, empty, and
// drawn at random, from a fresh token and a moved one.
func TestSkipIdleMatchesSilences(t *testing.T) {
	members := []int{3, 1, 4, 6, 8}
	const period = 4
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{RRW, OFRRW, MBTF} {
		for _, every := range []int64{1, 7} {
			cycle := every * period
			for slot := int64(0); slot < period; slot++ {
				on := slot * every // the slot's first on-duty round
				ranges := [][2]int64{
					{0, 0}, {0, 1}, {0, on + 1}, {0, cycle}, {0, 3*cycle + 2},
					{on, on + every}, {on + every/2, on + every}, {on + 1, on + 1},
					{cycle, 4 * cycle}, {2*cycle - 1, 7*cycle + 3}, {on + 1, 5*cycle + on},
				}
				for range 20 {
					from := rng.Int63n(10 * cycle)
					ranges = append(ranges, [2]int64{from, from + rng.Int63n(10*cycle)})
				}
				for _, rg := range ranges {
					for _, moved := range []int{0, 3} {
						skip := NewReplica(kind, 3, members, 9)
						step := NewReplica(kind, 3, members, 9)
						for range moved {
							skip.Observe(0, silence)
							step.Observe(0, silence)
						}
						from, to := rg[0], rg[1]
						skip.SkipIdle(from, to, every, period, slot)
						for r := from; r < to; r++ {
							if (r/every)%period == slot {
								step.Observe(r, silence)
							}
						}
						if !sameToken(&skip, &step) {
							sh, sp := skip.Token()
							wh, wp := step.Token()
							t.Fatalf("kind %d every %d slot %d [%d, %d) moved %d: SkipIdle token (%d, %d), stepped (%d, %d)",
								kind, every, slot, from, to, moved, sh, sp, wh, wp)
						}
					}
				}
			}
		}
	}
}

func TestMBTFRetainWhileBig(t *testing.T) {
	m := NewReplica(MBTF, 0, []int{0, 1, 2, 3}, 4)
	holder := func() int { h, _ := m.Token(); return h }
	m.Observe(0, silence) // token → 1
	m.Observe(1, silence) // token → 2
	if holder() != 2 {
		t.Fatalf("holder = %d", holder())
	}
	m.Observe(2, heardBig(true)) // 2 announces big: retains the token
	if holder() != 2 {
		t.Error("big holder lost the token")
	}
	m.Observe(3, heardBig(true))
	if holder() != 2 {
		t.Error("big holder lost the token on second big round")
	}
	m.Observe(4, heardBig(false)) // no longer big: token passes with the message
	if holder() != 3 {
		t.Errorf("after big drained, holder = %d, want 3", holder())
	}
	m.Observe(5, silence) // wraps
	if holder() != 0 {
		t.Errorf("holder = %d, want 0", holder())
	}
}

// TestMBTFBigBitAtThreshold: a holder's big bit is set exactly when its
// queue holds at least as many packets as the instance has members.
func TestMBTFBigBitAtThreshold(t *testing.T) {
	m := NewReplica(MBTF, 0, []int{0, 1, 2}, 3)
	for i := 0; i < 4; i++ {
		m.Inject(mac.Packet{ID: int64(i), Dest: 1})
	}
	for i, want := range []bool{true, true, false} {
		a := m.Act(int64(i))
		if !a.Transmit || a.Msg.Packet.ID != int64(i) || a.Msg.Ctrl.Bit(0) != want {
			t.Fatalf("round %d: action %+v, want packet %d with big=%v", i, a, i, want)
		}
		m.Observe(int64(i), heardBig(want))
	}
	if h, _ := m.Token(); h != 1 || m.QueueLen() != 1 {
		t.Errorf("holder %d with %d queued, want the token passed on with the first small packet", h, m.QueueLen())
	}
}

func TestMBTFNonBigHeardPassesToken(t *testing.T) {
	members := []int{0, 1, 2}
	a, b := NewReplica(MBTF, 0, members, 3), NewReplica(MBTF, 2, members, 3)
	a.Observe(0, heardBig(false))
	b.Observe(0, heardBig(false))
	if !sameToken(&a, &b) {
		t.Error("replicas diverged")
	}
	if h, _ := a.Token(); h != 1 {
		t.Error("non-big transmission should pass the token")
	}
}

func TestMBTFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty MBTF did not panic")
		}
	}()
	NewReplica(MBTF, 0, nil, 0)
}

// run drives a standalone system with the given adversary for rounds,
// strict and with conservation checking.
func run(t *testing.T, sys *core.System, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	tr := metrics.NewTracker()
	tr.SampleEvery = 64
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 512, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRRWStableBelowRateOne(t *testing.T) {
	n := 6
	// ρ = 3/4, β = 2, uniform traffic.
	adv := adversary.New(adversary.T(3, 4, 2), adversary.Uniform(n, 1))
	tr := run(t, NewRRWSystem(n), adv, 30000)
	if !tr.LooksStable() {
		t.Errorf("RRW unstable at ρ=3/4: %s", tr.Summary())
	}
	if tr.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestRRWDrainsCompletely(t *testing.T) {
	n := 5
	adv := adversary.New(adversary.T(1, 2, 1),
		adversary.Stop(adversary.Uniform(n, 7), 5000))
	tr := run(t, NewRRWSystem(n), adv, 10000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain; %s", tr.Pending(), tr.Summary())
	}
	if tr.FinalQueue != 0 {
		t.Errorf("final queue = %d", tr.FinalQueue)
	}
}

func TestOFRRWStableBelowRateOne(t *testing.T) {
	n := 6
	adv := adversary.New(adversary.T(3, 4, 2), adversary.Uniform(n, 3))
	tr := run(t, NewOFRRWSystem(n), adv, 30000)
	if !tr.LooksStable() {
		t.Errorf("OF-RRW unstable at ρ=3/4: %s", tr.Summary())
	}
}

func TestOFRRWBoundedLatencyMatchesPaperShape(t *testing.T) {
	// [3]: OF-RRW delay ≤ 2n/(1−ρ) + 2β on n stations. At n=4, ρ=1/2,
	// β=1 that is 18; allow the bound itself as the assertion.
	n := 4
	adv := adversary.New(adversary.T(1, 2, 1), adversary.Uniform(n, 11))
	tr := run(t, NewOFRRWSystem(n), adv, 20000)
	bound := int64(2*n*2 + 2*1)
	if tr.MaxLatency > bound {
		t.Errorf("OF-RRW max latency %d exceeds paper bound %d", tr.MaxLatency, bound)
	}
}

func TestMBTFStableAtRateOne(t *testing.T) {
	// The headline property of [17]: throughput 1. Queues stay bounded
	// (O(n²+β)) even at ρ = 1.
	n := 6
	adv := adversary.New(adversary.T(1, 1, 2), adversary.Uniform(n, 5))
	tr := run(t, NewMBTFSystem(n), adv, 40000)
	if !tr.LooksStable() {
		t.Errorf("MBTF unstable at ρ=1: %s", tr.Summary())
	}
	bound := int64(2*n*n + 2) // 2n² + β with room
	if tr.MaxQueue > bound {
		t.Errorf("MBTF max queue %d exceeds O(n²+β) scale %d", tr.MaxQueue, bound)
	}
}

func TestMBTFStableAtRateOneSingleTarget(t *testing.T) {
	// All packets into one station: it becomes big, grabs the front, and
	// streams. Queue must stay small.
	n := 5
	adv := adversary.New(adversary.T(1, 1, 1), adversary.SingleTarget(2, 4))
	tr := run(t, NewMBTFSystem(n), adv, 20000)
	if !tr.LooksStable() {
		t.Errorf("MBTF unstable under single-target flood: %s", tr.Summary())
	}
}

func TestRRWUnstableAtRateOneSpread(t *testing.T) {
	// RRW pays one silent round per station per cycle; at ρ = 1 with
	// spread traffic the queue grows without bound — this is exactly why
	// the paper needs MBTF for throughput 1.
	n := 6
	adv := adversary.New(adversary.T(1, 1, 1), adversary.RoundRobin(n))
	tr := run(t, NewRRWSystem(n), adv, 40000)
	if tr.LooksStable() {
		t.Errorf("RRW unexpectedly stable at ρ=1: %s", tr.Summary())
	}
}

func TestAntiTokenWorsensRRWLatency(t *testing.T) {
	// The adaptive AntiToken adversary injects just behind the token;
	// packets then wait ~a full cycle, pushing RRW's mean latency well
	// above what the same (ρ, β) produces with uniform traffic.
	n := 8
	uni := run(t, NewRRWSystem(n),
		adversary.New(adversary.T(1, 2, 1), adversary.Uniform(n, 3)), 30000)
	anti := run(t, NewRRWSystem(n),
		adversary.NewAntiToken(n, adversary.T(1, 2, 1)), 30000)
	if !anti.LooksStable() {
		t.Fatalf("RRW must stay stable at ρ=1/2 even against AntiToken:\n%s", anti.Summary())
	}
	if anti.MeanLatency() <= uni.MeanLatency() {
		t.Errorf("AntiToken mean latency %.1f not worse than uniform %.1f",
			anti.MeanLatency(), uni.MeanLatency())
	}
	// Still within the universal bound of [18]/[3]: ≈ 2n/(1−ρ) + 2β.
	bound := int64(2*n*2 + 2*1 + n)
	if anti.MaxLatency > bound {
		t.Errorf("AntiToken pushed max latency %d beyond the %d bound", anti.MaxLatency, bound)
	}
}

func TestMaxQueueAdversaryVsMBTF(t *testing.T) {
	// MBTF's throughput-1 claim is worst-case: even an adversary that
	// always feeds the longest queue cannot destabilize it at ρ=1.
	n := 6
	tr := run(t, NewMBTFSystem(n), adversary.NewMaxQueue(n, adversary.T(1, 1, 2)), 40000)
	if !tr.LooksStable() {
		t.Errorf("MBTF unstable against MaxQueue at ρ=1:\n%s", tr.Summary())
	}
}

func TestBroadcastReplicasStayConsistent(t *testing.T) {
	// White-box: drive an MBTF system and check all stations' replicas
	// agree on the token after every round.
	n := 5
	sys := NewMBTFSystem(n)
	adv := adversary.New(adversary.T(1, 1, 3), adversary.Uniform(n, 9))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	for r := 0; r < 2000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		ref := sys.Stations[0].(*Replica)
		for i := 1; i < n; i++ {
			if !sameToken(sys.Stations[i].(*Replica), ref) {
				t.Fatalf("round %d: MBTF replica %d diverged", r, i)
			}
		}
	}
}

func TestOFRRWReplicasStayConsistent(t *testing.T) {
	n := 4
	sys := NewOFRRWSystem(n)
	adv := adversary.New(adversary.T(2, 3, 2), adversary.Uniform(n, 13))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	for r := 0; r < 2000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		ref := sys.Stations[0].(*Replica)
		for i := 1; i < n; i++ {
			if !sameToken(sys.Stations[i].(*Replica), ref) {
				t.Fatalf("round %d: ring replica %d diverged", r, i)
			}
		}
	}
}
