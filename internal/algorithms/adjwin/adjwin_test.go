package adjwin

import (
	"strings"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
)

func TestLg(t *testing.T) {
	cases := []struct {
		x    int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := lg(c.x); got != c.want {
			t.Errorf("lg(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestInitialWindowLeavesHalfForMain(t *testing.T) {
	for n := 2; n <= 10; n++ {
		L := InitialWindow(n)
		s := shape(n, L)
		if s.LM < L/2 {
			t.Errorf("n=%d: L=%d has Main %d < L/2", n, L, s.LM)
		}
		// Minimality: half the window must not suffice.
		if small := shape(n, L/2); small.LM >= L/4 && L > 2 {
			t.Errorf("n=%d: L/2=%d would already satisfy the constraint", n, L/2)
		}
	}
}

func TestShapePartsSumToL(t *testing.T) {
	for n := 2; n <= 8; n++ {
		L := InitialWindow(n)
		s := shape(n, L)
		if s.LG+s.LM+s.LA != L {
			t.Errorf("n=%d: stages %d+%d+%d != L=%d", n, s.LG, s.LM, s.LA, L)
		}
	}
}

func TestNewWithWindowValidation(t *testing.T) {
	if _, err := NewWithWindow(4, 64); err == nil {
		t.Error("window with no Main stage accepted")
	}
	if _, err := New(1); err == nil {
		t.Error("n=1 accepted")
	}
}

func run(t *testing.T, sys *core.System, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	tr := metrics.NewTracker()
	tr.SampleEvery = 4096
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 10007, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStableAtHalfRate(t *testing.T) {
	n := 4
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(n) // 6 windows if it never doubles
	tr := run(t, sys, adversary.New(adversary.T(1, 2, 2), adversary.Uniform(n, 42)), 6*L)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1/2:\n%s", tr.Summary())
	}
	if tr.MaxEnergy > 2 {
		t.Errorf("energy %d exceeds cap 2", tr.MaxEnergy)
	}
	if tr.ControlBits != 0 {
		t.Errorf("plain-packet algorithm sent %d control bits", tr.ControlBits)
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
	// Latency is at most two windows.
	finalL := CurrentWindow(sys.Stations[0])
	if tr.MaxLatency > 2*finalL {
		t.Errorf("max latency %d exceeds 2·L = %d", tr.MaxLatency, 2*finalL)
	}
}

func TestDrainsCompletely(t *testing.T) {
	n := 4
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(n)
	adv := adversary.New(adversary.T(2, 5, 2),
		adversary.Stop(adversary.Uniform(n, 11), 3*L))
	tr := run(t, sys, adv, 6*L)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestSingleTargetFlow(t *testing.T) {
	n := 4
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(n)
	adv := adversary.New(adversary.T(2, 5, 1),
		adversary.Stop(adversary.SingleTarget(0, 3), 2*L))
	tr := run(t, sys, adv, 5*L)
	if tr.Pending() != 0 {
		t.Errorf("single-target pending = %d:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestSelfAddressed(t *testing.T) {
	n := 4
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(n)
	adv := adversary.New(adversary.T(1, 5, 1),
		adversary.Stop(adversary.SingleTarget(2, 2), 2*L))
	tr := run(t, sys, adv, 5*L)
	if tr.Pending() != 0 {
		t.Errorf("self-addressed pending = %d", tr.Pending())
	}
}

func TestMinimalSystemN2(t *testing.T) {
	sys, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(2)
	adv := adversary.New(adversary.T(1, 3, 1),
		adversary.Stop(adversary.Uniform(2, 5), 3*L))
	tr := run(t, sys, adv, 7*L)
	if tr.Pending() != 0 {
		t.Errorf("n=2 pending = %d:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestWindowDoublesUnderPressure(t *testing.T) {
	// Start with a deliberately tiny window; the doubling mechanism must
	// grow it until all old packets fit, while remaining correct.
	n := 3
	small := int64(4096)
	if shape(n, small).LM <= 0 {
		t.Skip("chosen window infeasible for this n")
	}
	sys, err := NewWithWindow(n, small)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 2, 2),
		adversary.Stop(adversary.Uniform(n, 9), 120000))
	tr := run(t, sys, adv, 400000)
	grown := CurrentWindow(sys.Stations[0])
	if grown <= small {
		t.Errorf("window never doubled: still %d", grown)
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestAllStationsAgreeOnWindow(t *testing.T) {
	n := 4
	sys, err := NewWithWindow(n, 8192)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 2, 1), adversary.Uniform(n, 17))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	for r := 0; r < 100000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ref := CurrentWindow(sys.Stations[0])
	for i := 1; i < n; i++ {
		if got := CurrentWindow(sys.Stations[i]); got != ref {
			t.Fatalf("station %d window %d != station 0 window %d", i, got, ref)
		}
	}
}

func TestUnstableAtRateOne(t *testing.T) {
	// Theorem 2 (energy cap 2): at ρ = 1 windows double forever and the
	// backlog grows without bound.
	n := 2
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sys, adversary.New(adversary.T(1, 1, 1), adversary.Uniform(n, 3)), 300000)
	if tr.LooksStable() {
		t.Errorf("unexpectedly stable at ρ=1:\n%s", tr.Summary())
	}
}

func TestBurstAbsorbed(t *testing.T) {
	n := 4
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	L := InitialWindow(n)
	adv := adversary.New(adversary.T(1, 4, 50),
		adversary.Stop(adversary.Bursty(adversary.Uniform(n, 13), 997), 2*L))
	tr := run(t, sys, adv, 5*L)
	if tr.Pending() != 0 {
		t.Errorf("burst not drained: pending=%d", tr.Pending())
	}
}

// TestOutOfOrderInjectionPanics pins the invariant behind the old-packet
// test p.ID ≤ oldMax: a station's own queue must receive IDs in rising
// order, so a packet pushed after the snapshot is never mistaken for an
// old one.
func TestOutOfOrderInjectionPanics(t *testing.T) {
	sys, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stations[1]
	st.Inject(mac.Packet{ID: 5, Src: 1, Dest: 2})
	st.Act(0)
	st.Inject(mac.Packet{ID: 7, Src: 1, Dest: 0})
	st.Inject(mac.Packet{ID: 6, Src: 1, Dest: 0})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "queues packet 6 after packet 7") {
			t.Errorf("out-of-order injection: recovered %q, want the push-order panic", msg)
		}
	}()
	st.Act(1)
}
