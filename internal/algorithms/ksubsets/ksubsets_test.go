package ksubsets

import (
	"slices"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{6, 3, 20}, {5, 2, 10}, {8, 4, 70}, {4, 4, 1}, {10, 2, 45},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := Binomial(60, 30); got <= MaxThreads {
		t.Error("huge binomial should exceed cap")
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(70, 3); err == nil {
		t.Error("n>64 accepted")
	}
	if _, err := NewLayout(6, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewLayout(40, 20); err == nil {
		t.Error("overlarge γ accepted")
	}
}

func TestLayoutEnumeration(t *testing.T) {
	lay, err := NewLayout(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Gamma != 6 {
		t.Fatalf("γ = %d, want 6", lay.Gamma)
	}
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i, w := range want {
		got := lay.roster.Members(i)
		if len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Errorf("A_%d = %v, want %v", i, got, w)
		}
	}
	// Each station is in C(3,1) = 3 threads.
	for v, c := range sched.OnCounts(lay.roster) {
		if c != 3 {
			t.Errorf("station %d in %d threads", v, c)
		}
	}
}

func TestEligibleThreads(t *testing.T) {
	lay, _ := NewLayout(5, 3)
	// Eligible(v,w) for v≠w has C(n−2,k−2) = C(3,1) = 3 threads, each
	// containing both.
	for v := 0; v < 5; v++ {
		for w := 0; w < 5; w++ {
			el := lay.Eligible(v, w)
			wantLen := 3
			if v == w {
				wantLen = 6 // C(4,2): threads containing v
			}
			if len(el) != wantLen {
				t.Errorf("Eligible(%d,%d) has %d threads, want %d", v, w, len(el), wantLen)
			}
			for _, th := range el {
				if m := lay.roster.Members(th); !slices.Contains(m, v) || !slices.Contains(m, w) {
					t.Errorf("thread %d in Eligible(%d,%d) misses an endpoint", th, v, w)
				}
			}
		}
	}
}

func TestScheduleRespectsCap(t *testing.T) {
	lay, _ := NewLayout(6, 3)
	if err := sched.Validate(lay.roster, 3); err != nil {
		t.Error(err)
	}
	if got := sched.MaxSimultaneous(lay.roster); got != 3 {
		t.Errorf("max on = %d, want 3", got)
	}
	// Double counting: every station is on in exactly C(n−1,k−1)/γ of the
	// rounds = k/n.
	counts := sched.OnCounts(lay.roster)
	for v, c := range counts {
		if c != 10 { // C(5,2)
			t.Errorf("station %d on %d rounds per period, want 10", v, c)
		}
	}
}

func run(t *testing.T, sys *core.System, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	tr := metrics.NewTracker()
	tr.SampleEvery = 256
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 2003, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStableAtCriticalRate(t *testing.T) {
	// Theorem 8: stable at exactly ρ = k(k−1)/(n(n−1)). n=6, k=3: ρ = 1/5.
	n, k := 6, 3
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sys, adversary.New(adversary.T(1, 5, 2), adversary.Uniform(n, 42)), 150000)
	if !tr.LooksStable() {
		t.Errorf("unstable at the critical rate 1/5:\n%s", tr.Summary())
	}
	bound := 2 * 20 * int64(n*n+2) // 2·C(n,k)·(n²+β)
	if tr.MaxQueue > bound {
		t.Errorf("max queue %d exceeds Theorem 8 bound %d", tr.MaxQueue, bound)
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestUnstableAboveCriticalRate(t *testing.T) {
	// Theorem 9: ρ = 1/4 > 1/5 against the least co-scheduled pair.
	n, k := 6, 3
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.LeastPair(sys.Schedule, adversary.T(1, 4, 1))
	tr := run(t, sys, adv, 120000)
	if tr.LooksStable() {
		t.Errorf("unexpectedly stable above critical rate:\n%s", tr.Summary())
	}
	if tr.QueueSlope() <= 0 {
		t.Errorf("queue slope %f not positive", tr.QueueSlope())
	}
}

func TestDrainsCompletely(t *testing.T) {
	n, k := 5, 3
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 12, 2),
		adversary.Stop(adversary.Uniform(n, 11), 40000))
	tr := run(t, sys, adv, 120000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestRRWVariantDrainsAndIsPlainPacket(t *testing.T) {
	n, k := 5, 3
	sys, err := NewRRW(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Info.PlainPacket {
		t.Error("RRW variant must be plain-packet")
	}
	adv := adversary.New(adversary.T(1, 12, 2),
		adversary.Stop(adversary.Uniform(n, 13), 40000))
	tr := run(t, sys, adv, 120000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
	if tr.ControlBits != 0 {
		t.Errorf("plain-packet variant sent %d control bits", tr.ControlBits)
	}
}

func TestRRWVariantStableBelowCritical(t *testing.T) {
	// RRW inside threads: stable strictly below critical (1/5); use 1/6.
	n, k := 6, 3
	sys, err := NewRRW(n, k)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sys, adversary.New(adversary.T(1, 6, 2), adversary.Uniform(n, 7)), 150000)
	if !tr.LooksStable() {
		t.Errorf("RRW variant unstable at 1/6:\n%s", tr.Summary())
	}
}

func TestBalancedAllocation(t *testing.T) {
	// After many injections to one destination, the per-thread counters of
	// that (src, dest) pair differ by at most 1 (the paper's balance
	// property).
	sys, _ := New(6, 3)
	s := sys.Stations[0].(*station)
	for i := 0; i < 101; i++ {
		s.Inject(pktFor(int64(i), 0, 4))
	}
	s.allocate()
	cnt := s.counters[4]
	min, max := cnt[0], cnt[0]
	for _, c := range cnt {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("allocation unbalanced: min=%d max=%d", min, max)
	}
	var total int64
	for _, c := range cnt {
		total += c
	}
	if total != 101 {
		t.Errorf("allocated %d packets, want 101", total)
	}
}

func TestSelfAddressed(t *testing.T) {
	n, k := 5, 2
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 20, 1),
		adversary.Stop(adversary.SingleTarget(3, 3), 20000))
	tr := run(t, sys, adv, 80000)
	if tr.Pending() != 0 {
		t.Errorf("self-addressed stuck: pending=%d", tr.Pending())
	}
}

func TestFullSetSingleThread(t *testing.T) {
	// k = n degenerates to one thread: plain MBTF, always on.
	n := 4
	sys, err := New(n, n)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 2, 1),
		adversary.Stop(adversary.Uniform(n, 9), 10000))
	tr := run(t, sys, adv, 30000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d", tr.Pending())
	}
}

func pktFor(id int64, src, dest int) mac.Packet {
	return mac.Packet{ID: id, Src: src, Dest: dest}
}

// TestRoutesStayInsideSeat: every thread allocate may pick for a
// packet, Eligible(src, dest), holds both endpoints, so the source's
// Seat.Replica always finds the thread's replica; the list is every
// such thread, ascending.
func TestRoutesStayInsideSeat(t *testing.T) {
	for n := 3; n <= 9; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				for dest := 0; dest < n; dest++ {
					var want []int
					for th := 0; th < lay.Gamma; th++ {
						if m := lay.roster.Members(th); slices.Contains(m, src) && slices.Contains(m, dest) {
							want = append(want, th)
						}
					}
					if got := lay.Eligible(src, dest); !slices.Equal(got, want) {
						t.Errorf("n=%d k=%d: Eligible(%d, %d) = %v, want %v", n, k, src, dest, got, want)
					}
				}
			}
		}
	}
}
