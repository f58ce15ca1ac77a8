package broadcast

import (
	"math/rand"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
)

func TestRingTokenCycle(t *testing.T) {
	r := NewRing([]int{4, 7, 9})
	if r.Holder() != 4 || r.Phase() != 0 {
		t.Fatalf("fresh ring: holder=%d phase=%d", r.Holder(), r.Phase())
	}
	// Heard keeps the token.
	r.ObserveHeard()
	if r.Holder() != 4 {
		t.Error("heard moved the token")
	}
	// Three silences complete a phase.
	if r.ObserveSilence() {
		t.Error("phase ended after 1 silence")
	}
	if r.Holder() != 7 {
		t.Errorf("holder = %d, want 7", r.Holder())
	}
	if r.ObserveSilence() {
		t.Error("phase ended after 2 silences")
	}
	if !r.ObserveSilence() {
		t.Error("phase did not end after full cycle")
	}
	if r.Phase() != 1 || r.Holder() != 4 {
		t.Errorf("after cycle: phase=%d holder=%d", r.Phase(), r.Holder())
	}
}

func TestRingHeardDoesNotCountTowardPhase(t *testing.T) {
	r := NewRing([]int{0, 1})
	r.ObserveSilence()
	r.ObserveHeard()
	r.ObserveHeard()
	if r.Phase() != 0 {
		t.Error("heard rounds advanced the phase")
	}
	if !r.ObserveSilence() {
		t.Error("second silence should end the phase")
	}
}

func TestRingReplicaEquality(t *testing.T) {
	a, b := NewRing([]int{0, 1, 2}), NewRing([]int{0, 1, 2})
	ops := []bool{true, false, true, true, false, true, true, true}
	for _, silence := range ops {
		if silence {
			a.ObserveSilence()
			b.ObserveSilence()
		} else {
			a.ObserveHeard()
			b.ObserveHeard()
		}
		if !a.Equal(b) {
			t.Fatal("replicas diverged")
		}
	}
	b.ObserveSilence()
	if a.Equal(b) {
		t.Error("Equal missed divergence")
	}
}

func TestEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty ring did not panic")
		}
	}()
	NewRing(nil)
}

// TestPhaseTailMatchesTags drives PhaseTail through random pushes,
// phase advances (single and skipped), front checks and old-front pops
// (which PhaseTail is not told about), against a queue of per-packet
// phase tags — the representation it replaces.
func TestPhaseTailMatchesTags(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tail PhaseTail
		var tags []int64 // the queue, front first: each packet's push phase
		phase := int64(0)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				tail.Pushed(phase)
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
				if got := tail.FrontIsNew(phase, len(tags)); got != want {
					t.Fatalf("seed %d op %d: FrontIsNew = %v, tags %v at phase %d", seed, op, got, tags, phase)
				}
				if !want {
					tags = tags[1:]
				}
			}
		}
	}
}

func TestMBTFRetainWhileBig(t *testing.T) {
	m := NewMBTF([]int{0, 1, 2, 3})
	if m.Threshold() != 4 {
		t.Errorf("threshold = %d", m.Threshold())
	}
	m.ObserveSilence() // token → 1
	m.ObserveSilence() // token → 2
	if m.Holder() != 2 {
		t.Fatalf("holder = %d", m.Holder())
	}
	m.ObserveHeard(true) // 2 announces big: retains the token
	if m.Holder() != 2 {
		t.Error("big holder lost the token")
	}
	m.ObserveHeard(true)
	if m.Holder() != 2 {
		t.Error("big holder lost the token on second big round")
	}
	m.ObserveHeard(false) // no longer big: token passes with the message
	if m.Holder() != 3 {
		t.Errorf("after big drained, holder = %d, want 3", m.Holder())
	}
	m.ObserveSilence() // wraps
	if m.Holder() != 0 {
		t.Errorf("holder = %d, want 0", m.Holder())
	}
}

func TestMBTFNonBigHeardPassesToken(t *testing.T) {
	a, b := NewMBTF([]int{0, 1, 2}), NewMBTF([]int{0, 1, 2})
	a.ObserveHeard(false)
	b.ObserveHeard(false)
	if !a.Equal(b) {
		t.Error("replicas diverged")
	}
	if a.Holder() != 1 {
		t.Error("non-big transmission should pass the token")
	}
}

func TestMBTFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty MBTF did not panic")
		}
	}()
	NewMBTF(nil)
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
	// White-box: drive an MBTF system and check all stations' machines
	// agree after every round.
	n := 5
	sys := NewMBTFSystem(n)
	adv := adversary.New(adversary.T(1, 1, 3), adversary.Uniform(n, 9))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	for r := 0; r < 2000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		ref := sys.Stations[0].(*mbtfStation).m
		for i := 1; i < n; i++ {
			if !sys.Stations[i].(*mbtfStation).m.Equal(ref) {
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
		ref := sys.Stations[0].(*rrwStation).ring
		for i := 1; i < n; i++ {
			if !sys.Stations[i].(*rrwStation).ring.Equal(ref) {
				t.Fatalf("round %d: ring replica %d diverged", r, i)
			}
		}
	}
}
