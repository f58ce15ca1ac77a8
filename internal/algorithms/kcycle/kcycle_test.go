package kcycle

import (
	"slices"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(2, 2); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := NewLayout(5, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestLayoutClampsK(t *testing.T) {
	lay, err := NewLayout(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if lay.K != 4 { // ⌊(7+1)/2⌋
		t.Errorf("K = %d, want 4", lay.K)
	}
}

func TestLayoutSmall(t *testing.T) {
	lay, err := NewLayout(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lay.L != 4 {
		t.Fatalf("L = %d, want 4", lay.L)
	}
	wantMembers := [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {0, 6}}
	for g, want := range wantMembers {
		got := lay.roster.Members(g)
		if len(got) != len(want) {
			t.Fatalf("group %d = %v, want %v", g, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d = %v, want %v", g, got, want)
			}
		}
	}
	wantConn := []int{2, 4, 6, 0}
	for g, want := range wantConn {
		if lay.connector[g] != want {
			t.Errorf("connector[%d] = %d, want %d", g, lay.connector[g], want)
		}
	}
	// δ = ⌈4·6·3/4⌉ = 18.
	if lay.Delta != 18 {
		t.Errorf("Delta = %d, want 18", lay.Delta)
	}
}

func TestLayoutCoversAllStationsEveryK(t *testing.T) {
	for n := 3; n <= 16; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				t.Fatal(err)
			}
			covered := make([]bool, n)
			for g := 0; g < lay.L; g++ {
				members := lay.roster.Members(g)
				if len(members) > lay.K {
					t.Errorf("n=%d k=%d: group %d has %d members > effective k %d", n, k, g, len(members), lay.K)
				}
				for _, s := range members {
					covered[s] = true
				}
				// Consecutive groups share their connector.
				c := lay.connector[g]
				ng := lay.NextGroup(g)
				if !lay.inGroup(g, c) || !lay.inGroup(ng, c) {
					t.Errorf("n=%d k=%d: connector %d not shared between groups %d and %d", n, k, c, g, ng)
				}
			}
			for s, ok := range covered {
				if !ok {
					t.Errorf("n=%d k=%d: station %d uncovered", n, k, s)
				}
			}
		}
	}
}

func TestScheduleRespectsCap(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 2}, {7, 3}, {9, 4}, {12, 5}} {
		lay, err := NewLayout(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(lay.roster, lay.K); err != nil {
			t.Errorf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if got := sched.MaxSimultaneous(lay.roster); got != lay.K {
			t.Errorf("n=%d k=%d: max simultaneous %d, want %d", tc.n, tc.k, got, lay.K)
		}
	}
}

func TestHomeGroupPrefersSharedGroup(t *testing.T) {
	lay, _ := NewLayout(7, 3)
	// 0 and 1 share group 0.
	if g := lay.HomeGroup(0, 1); g != 0 {
		t.Errorf("HomeGroup(0,1) = %d, want 0", g)
	}
	// 3's only group is 1; dest 6 is elsewhere.
	if g := lay.HomeGroup(3, 6); g != 1 {
		t.Errorf("HomeGroup(3,6) = %d, want 1", g)
	}
	// Connector 4 (groups 1,2) with dest 0: forward group is 2.
	if g := lay.HomeGroup(4, 0); g != 2 {
		t.Errorf("HomeGroup(4,0) = %d, want 2", g)
	}
	// Connector 4 with dest 3: group 1 contains both.
	if g := lay.HomeGroup(4, 3); g != 1 {
		t.Errorf("HomeGroup(4,3) = %d, want 1", g)
	}
}

func run(t *testing.T, n, k int, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 256
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 1009, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStableBelowCriticalRate(t *testing.T) {
	// n=7, k=3: stable for ρ < (k−1)/(n−1) = 1/3. Use ρ = 1/4.
	tr := run(t, 7, 3, adversary.New(adversary.T(1, 4, 2), adversary.Uniform(7, 42)), 80000)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1/4 < 1/3:\n%s", tr.Summary())
	}
	if tr.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestLatencyWithinPaperBound(t *testing.T) {
	// Paper: latency ≤ (32+β)·n for ρ < (k−1)/(n−1).
	n, beta := 7, int64(2)
	tr := run(t, n, 3, adversary.New(adversary.T(1, 4, 2), adversary.Uniform(n, 7)), 80000)
	bound := (32 + beta) * int64(n)
	if tr.MaxLatency > bound {
		t.Errorf("max latency %d exceeds paper bound %d:\n%s", tr.MaxLatency, bound, tr.Summary())
	}
}

func TestDrainsCompletely(t *testing.T) {
	n := 7
	adv := adversary.New(adversary.T(1, 5, 2),
		adversary.Stop(adversary.Uniform(n, 11), 30000))
	tr := run(t, n, 3, adv, 60000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestMultiHopForwarding(t *testing.T) {
	// Packets from station 1 (group 0) to station 5 (group 2) must cross
	// groups; verify they arrive.
	n := 7
	adv := adversary.New(adversary.T(1, 8, 1),
		adversary.Stop(adversary.SingleTarget(1, 5), 20000))
	tr := run(t, n, 3, adv, 60000)
	if tr.Pending() != 0 {
		t.Errorf("multi-hop packets stuck: pending=%d\n%s", tr.Pending(), tr.Summary())
	}
	if tr.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestBackwardDestination(t *testing.T) {
	// Station 5 (group 2) to station 1 (group 0): must wrap through the
	// last group and around.
	n := 7
	adv := adversary.New(adversary.T(1, 8, 1),
		adversary.Stop(adversary.SingleTarget(5, 1), 20000))
	tr := run(t, n, 3, adv, 80000)
	if tr.Pending() != 0 {
		t.Errorf("backward packets stuck: pending=%d", tr.Pending())
	}
}

func TestSelfAddressed(t *testing.T) {
	n := 7
	adv := adversary.New(adversary.T(1, 8, 1),
		adversary.Stop(adversary.SingleTarget(4, 4), 10000))
	tr := run(t, n, 3, adv, 40000)
	if tr.Pending() != 0 {
		t.Errorf("self-addressed stuck: pending=%d", tr.Pending())
	}
}

func TestConnectorInjection(t *testing.T) {
	// Packets injected directly into a connector station (4 in groups 1,2).
	n := 7
	adv := adversary.New(adversary.T(1, 8, 1),
		adversary.Stop(adversary.HotSource(4, n), 20000))
	tr := run(t, n, 3, adv, 80000)
	if tr.Pending() != 0 {
		t.Errorf("connector packets stuck: pending=%d", tr.Pending())
	}
}

func TestUnstableAboveObliviousCeiling(t *testing.T) {
	// Theorem 6: any k-oblivious algorithm is unstable for ρ > k/n.
	// n=7, k=3: ceiling 3/7; inject at ρ = 1/2 > 3/7 into the least-on
	// station.
	n, k := 7, 3
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.LeastOn(sys.Schedule, adversary.T(1, 2, 1))
	tr := metrics.NewTracker()
	tr.SampleEvery = 256
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 2003, Tracker: tr})
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	if tr.LooksStable() {
		t.Errorf("unexpectedly stable above k/n:\n%s", tr.Summary())
	}
	if tr.QueueSlope() <= 0 {
		t.Errorf("queue slope %f not positive", tr.QueueSlope())
	}
}

func TestConcentratedFloodCrossesAtActivityFraction(t *testing.T) {
	// Reproduction finding (EXPERIMENTS.md): Theorem 5 claims stability
	// for ρ < (k−1)/(n−1), but a station is only on during its group's
	// activity — a 1/ℓ fraction of rounds, and 1/ℓ ≈ (k−1)/n is strictly
	// below the claimed threshold whenever the wrap group exists. Under a
	// single-station flood the measured crossover sits at 1/ℓ: for n=7,
	// k=3 (ℓ=4, claimed threshold 1/3) the flood is absorbed at ρ=1/5 and
	// overwhelms the station at ρ=3/10 < 1/3, with queue growth matching
	// ρ − 1/ℓ.
	stableAt := func(num, den int64) (bool, float64) {
		sys, err := New(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		adv := adversary.New(adversary.T(num, den, 2), adversary.SingleTarget(3, 6))
		tr := metrics.NewTracker()
		tr.SampleEvery = 512
		sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr})
		if err := sim.Run(400000); err != nil {
			t.Fatal(err)
		}
		return tr.LooksStable(), tr.QueueSlope()
	}
	if ok, slope := stableAt(1, 5); !ok {
		t.Errorf("concentrated flood at ρ=1/5 < 1/ℓ should be absorbed (slope %f)", slope)
	}
	ok, slope := stableAt(3, 10)
	if ok {
		t.Error("concentrated flood at ρ=3/10 ∈ (1/ℓ, (k−1)/(n−1)) should overwhelm the station")
	}
	// The growth rate is the injection rate minus the station's service
	// fraction: 3/10 − 1/4 = 0.05.
	if slope < 0.03 || slope > 0.07 {
		t.Errorf("growth slope %f, want ≈ ρ − 1/ℓ = 0.05", slope)
	}
}

func TestMinimalSystem(t *testing.T) {
	// n=3, k=2 is the smallest configuration.
	adv := adversary.New(adversary.T(1, 10, 1),
		adversary.Stop(adversary.Uniform(3, 3), 20000))
	tr := run(t, 3, 2, adv, 80000)
	if tr.Pending() != 0 {
		t.Errorf("n=3 pending = %d:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestReplicaRingsConsistent(t *testing.T) {
	n, k := 9, 4
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 4, 2), adversary.Uniform(n, 5))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	lay := sys.Stations[0].(*station).lay
	for r := 0; r < 5000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		// All members of each group agree on that group's token.
		for g := 0; g < lay.L; g++ {
			members := lay.roster.Members(g)
			first := sys.Stations[members[0]].(*station)
			holder, phase := first.Replica(g).Token()
			for _, m := range members[1:] {
				st := sys.Stations[m].(*station)
				if h, ph := st.Replica(g).Token(); h != holder || ph != phase {
					t.Fatalf("round %d: replicas for group %d diverged", r, g)
				}
			}
		}
	}
}

// TestInGroupMatchesMembers: the range test agrees with the member
// lists for every group and station, the wrapping last group included.
func TestInGroupMatchesMembers(t *testing.T) {
	for n := 3; n <= 20; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < lay.L; g++ {
				for st := 0; st < n; st++ {
					if got, want := lay.inGroup(g, st), slices.Contains(lay.roster.Members(g), st); got != want {
						t.Errorf("n=%d k=%d: inGroup(%d, %d) = %v, members %v", n, k, g, st, got, lay.roster.Members(g))
					}
				}
			}
		}
	}
}

// TestIdleProfile: the roster's idle profile is constant exactly when
// every group has one size (n=6, k=3: three groups of three), and
// otherwise lists, for one rotation of δ·ℓ rounds from any round, the
// size of the group on duty (n=7, k=3: the wrapping fourth group has
// two members).
func TestIdleProfile(t *testing.T) {
	even, err := NewLayout(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := core.IdleConstOf(even.roster.Idle()); !ok || e != (core.IdleRound{Energy: 3}) {
		t.Errorf("n=6 k=3: idle profile %v (constant %v), want constant energy 3", e, ok)
	}
	lay, err := NewLayout(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	prof := lay.roster.Idle()
	if _, ok := core.IdleConstOf(prof); ok {
		t.Fatal("n=7 k=3: groups of sizes 3, 3, 3, 2 declared a constant profile")
	}
	sizes := []int{3, 3, 3, 2}
	for _, from := range []int64{0, 1, 17, 18, 53, 54, 71, 72, 1000} {
		got := prof.AppendIdleCycle(from, nil)
		if int64(len(got)) != lay.Delta*int64(lay.L) {
			t.Fatalf("from %d: %d entries, want δ·ℓ = %d", from, len(got), lay.Delta*int64(lay.L))
		}
		for j, e := range got {
			want := core.IdleRound{Energy: sizes[(from+int64(j))/lay.Delta%int64(lay.L)]}
			if e != want {
				t.Fatalf("from %d: entry %d = %+v, want %+v", from, j, e, want)
			}
		}
	}
}

// TestRoutesStayInsideSeat: every group a station routes a packet into
// contains it, so Seat.Replica always finds the replica: HomeGroup for
// each destination, and the next group for a connector's adoption.
// HomeGroup is the first group, in index order, that holds both
// endpoints, or else the group the source starts or lies inside.
func TestRoutesStayInsideSeat(t *testing.T) {
	for n := 3; n <= 20; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				// src's forward group: the one starting at src, at
				// g(k−1), or else the first one holding it.
				forward := -1
				for g := 0; g < lay.L && forward < 0; g++ {
					if g*(lay.K-1) == src {
						forward = g
					}
				}
				for g := 0; g < lay.L && forward < 0; g++ {
					if slices.Contains(lay.roster.Members(g), src) {
						forward = g
					}
				}
				for dest := 0; dest < n; dest++ {
					want := forward
					for g := 0; g < lay.L; g++ {
						if m := lay.roster.Members(g); slices.Contains(m, src) && slices.Contains(m, dest) {
							want = g
							break
						}
					}
					if got := lay.HomeGroup(src, dest); got != want || !slices.Contains(lay.roster.Members(got), src) {
						t.Errorf("n=%d k=%d: HomeGroup(%d, %d) = %d, want %d", n, k, src, dest, got, want)
					}
				}
			}
			for g := 0; g < lay.L; g++ {
				if c := lay.connector[g]; !slices.Contains(lay.roster.Members(lay.NextGroup(g)), c) {
					t.Errorf("n=%d k=%d: connector %d of group %d adopts into group %d, which lacks it", n, k, c, g, lay.NextGroup(g))
				}
			}
		}
	}
}
