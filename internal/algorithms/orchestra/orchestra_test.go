package orchestra

import (
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
)

func run(t *testing.T, n int, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 256
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 1021, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRejectsTinySystem(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) should fail")
	}
}

func TestStableAtRateOneUniform(t *testing.T) {
	// Theorem 1: stable at the maximum injection rate ρ = 1 with queues
	// bounded by 2n³ + β.
	n := 6
	beta := int64(2)
	tr := run(t, n, adversary.New(adversary.T(1, 1, beta), adversary.Uniform(n, 42)), 120000)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1:\n%s", tr.Summary())
	}
	bound := 2*int64(n)*int64(n)*int64(n) + beta
	if tr.MaxQueue > bound {
		t.Errorf("max queue %d exceeds Theorem 1 bound %d:\n%s", tr.MaxQueue, bound, tr.Summary())
	}
	if tr.MaxEnergy > 3 {
		t.Errorf("energy %d exceeds cap 3", tr.MaxEnergy)
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestStableAtRateOneSingleTarget(t *testing.T) {
	// All packets into one station: it becomes big, grabs the baton, and
	// conducts indefinitely — the move-big-to-front mechanism.
	n := 6
	tr := run(t, n, adversary.New(adversary.T(1, 1, 1), adversary.HotSource(3, n)), 120000)
	if !tr.LooksStable() {
		t.Errorf("unstable under single-source flood:\n%s", tr.Summary())
	}
	bound := 2*int64(n)*int64(n)*int64(n) + 1
	if tr.MaxQueue > bound {
		t.Errorf("max queue %d exceeds bound %d", tr.MaxQueue, bound)
	}
}

func TestStableAtRateOneRoundRobin(t *testing.T) {
	n := 5
	tr := run(t, n, adversary.New(adversary.T(1, 1, 1), adversary.RoundRobin(n)), 100000)
	if !tr.LooksStable() {
		t.Errorf("unstable under round-robin traffic:\n%s", tr.Summary())
	}
}

func TestBurstAbsorbed(t *testing.T) {
	n := 5
	beta := int64(30)
	tr := run(t, n, adversary.New(adversary.T(1, 2, beta),
		adversary.Bursty(adversary.Uniform(n, 13), 200)), 60000)
	if !tr.LooksStable() {
		t.Errorf("unstable under bursts:\n%s", tr.Summary())
	}
	bound := 2*int64(n)*int64(n)*int64(n) + beta
	if tr.MaxQueue > bound {
		t.Errorf("max queue %d exceeds bound %d", tr.MaxQueue, bound)
	}
}

func TestDrainsCompletely(t *testing.T) {
	n := 5
	adv := adversary.New(adversary.T(1, 2, 2),
		adversary.Stop(adversary.Uniform(n, 11), 30000))
	tr := run(t, n, adv, 90000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestSelfAddressedDelivered(t *testing.T) {
	n := 4
	adv := adversary.New(adversary.T(1, 3, 1),
		adversary.Stop(adversary.SingleTarget(2, 2), 10000))
	tr := run(t, n, adv, 40000)
	if tr.Pending() != 0 {
		t.Errorf("self-addressed stuck: pending=%d", tr.Pending())
	}
}

func TestMinimalSystemN2(t *testing.T) {
	adv := adversary.New(adversary.T(1, 2, 1),
		adversary.Stop(adversary.Uniform(2, 5), 4000))
	tr := run(t, 2, adv, 16000)
	if tr.Pending() != 0 {
		t.Errorf("n=2 pending = %d:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestStarvationUnderPermanentFlood(t *testing.T) {
	// Table 1 reports latency ∞ for Orchestra: a permanently big conductor
	// keeps the baton forever and other stations' packets starve. A burst
	// of β+1 packets makes station 0 big before station 4 conducts for the
	// second time; one victim packet at station 4 then waits forever.
	n := 6
	early := adversary.AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		if round == 10 {
			return append(buf, core.Injection{Station: 4, Dest: 5})
		}
		for i := 0; i < budget; i++ {
			buf = append(buf, core.Injection{Station: 0, Dest: 1 + int(round)%2})
		}
		return buf
	})
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	sim := core.NewSim(sys, adversary.New(adversary.T(1, 1, 50), early), core.Options{Strict: true, Tracker: tr})
	if err := sim.Run(60000); err != nil {
		t.Fatal(err)
	}
	// Station 4 still holds its packet: the flooded station monopolizes
	// the channel. (Pending = that one packet plus whatever of the flood
	// is in flight; assert specifically that station 4 never delivered.)
	held := sys.Stations[4].(*station).AppendHeld(nil)
	found := false
	for _, p := range held {
		if p.Dest == 5 {
			found = true
		}
	}
	if !found {
		t.Error("starvation expected: station 4's packet should still be queued while station 0 monopolizes the baton")
	}
}

func TestStableAgainstMaxQueueAdversary(t *testing.T) {
	// Theorem 1 is a worst-case claim: the adaptive adversary that always
	// injects into the currently-longest queue must also be absorbed.
	n := 6
	tr := run(t, n, adversary.NewMaxQueue(n, adversary.T(1, 1, 2)), 120000)
	if !tr.LooksStable() {
		t.Errorf("unstable against MaxQueue at ρ=1:\n%s", tr.Summary())
	}
	bound := 2*int64(n)*int64(n)*int64(n) + 2
	if tr.MaxQueue > bound {
		t.Errorf("max queue %d exceeds Theorem 1 bound %d", tr.MaxQueue, bound)
	}
}

func TestBatonReplicasStayConsistent(t *testing.T) {
	n := 6
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 1, 3), adversary.Uniform(n, 5))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	seasonLen := int64(n - 1)
	for r := int64(0); r < 20000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		// Lists are guaranteed identical at season boundaries (stations
		// update them lazily in Act, so compare right after a season's
		// first round has been processed by everyone).
		if (r+1)%seasonLen == 1 || seasonLen == 1 {
			ref := sys.Stations[0].(*station).list
			for i := 1; i < n; i++ {
				if !sys.Stations[i].(*station).list.Equal(ref) {
					t.Fatalf("round %d: baton list of station %d diverged:\n  %v\n  %v",
						r, i, ref, sys.Stations[i].(*station).list)
				}
			}
		}
	}
}

func TestLearnerMapping(t *testing.T) {
	s := &station{id: 0, n: 5}
	// Conductor 2: musicians in name order are 0,1,3,4.
	want := []int{0, 1, 3, 4}
	for j, w := range want {
		if got := s.learnerOf(int64(j), 2); got != w {
			t.Errorf("learnerOf(%d, conductor 2) = %d, want %d", j, got, w)
		}
	}
	// Conductor 0: musicians are 1,2,3,4.
	want = []int{1, 2, 3, 4}
	for j, w := range want {
		if got := s.learnerOf(int64(j), 0); got != w {
			t.Errorf("learnerOf(%d, conductor 0) = %d, want %d", j, got, w)
		}
	}
}

func TestLatencyBoundedBelowRateOne(t *testing.T) {
	// Below rate 1 Orchestra delivers everything with finite delay; check
	// the maximum delay stays well under the run length (i.e. no creeping
	// starvation at moderate rates).
	n := 5
	tr := run(t, n, adversary.New(adversary.T(1, 2, 1), adversary.Uniform(n, 21)), 80000)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1/2:\n%s", tr.Summary())
	}
	if tr.MaxLatency > 4000 {
		t.Errorf("max latency %d suspiciously high at ρ=1/2:\n%s", tr.MaxLatency, tr.Summary())
	}
}

func TestControlBitsAreBounded(t *testing.T) {
	// Every message carries at most 1 + (n−1) control bits (the toggle and
	// the teaching mask), rounded up to whole bytes.
	n := 6
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	sim := core.NewSim(sys, adversary.New(adversary.T(1, 1, 1), adversary.Uniform(n, 3)),
		core.Options{Strict: true, Tracker: tr})
	if err := sim.Run(5000); err != nil {
		t.Fatal(err)
	}
	maxBitsPerMsg := int64((1 + n - 1 + 7) / 8 * 8)
	if tr.ControlBits > tr.HeardRounds*maxBitsPerMsg {
		t.Errorf("control bits %d exceed %d per message", tr.ControlBits, maxBitsPerMsg)
	}
	if tr.HeardRounds != tr.Rounds {
		t.Errorf("conductor must transmit every round: heard=%d rounds=%d", tr.HeardRounds, tr.Rounds)
	}
}

var _ = mac.Packet{} // keep the mac import for the starvation test's types
