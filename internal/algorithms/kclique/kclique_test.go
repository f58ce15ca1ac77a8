package kclique

import (
	"slices"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

func TestFeasibleK(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 4, 4},   // 4 | 16, 4 ≤ 16/3
		{8, 5, 4},   // 5 odd → down to 4
		{8, 100, 4}, // clamp to 2n/3 = 5 → 4
		{9, 6, 6},   // 6 | 18, 6 = 2·9/3
		{9, 4, 2},   // 4 ∤ 18 → 2
		{3, 2, 2},
		{6, 4, 4},
		{12, 8, 8},
	}
	for _, c := range cases {
		if got := FeasibleK(c.n, c.k); got != c.want {
			t.Errorf("FeasibleK(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestLayoutStructure(t *testing.T) {
	lay, err := NewLayout(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Sets != 4 || lay.NumPairs != 6 {
		t.Fatalf("sets=%d pairs=%d, want 4 and 6", lay.Sets, lay.NumPairs)
	}
	// Half-sets of size 2: station 5 is in set 2.
	if lay.SetOf(5) != 2 {
		t.Errorf("SetOf(5) = %d", lay.SetOf(5))
	}
	// Every pair has exactly k members and every station is in Sets−1 pairs.
	for p, m := range lay.members {
		if len(m) != 4 {
			t.Errorf("pair %d has %d members", p, len(m))
		}
	}
	for s := 0; s < 8; s++ {
		if len(lay.pairsOf[s]) != 3 {
			t.Errorf("station %d in %d pairs, want 3", s, len(lay.pairsOf[s]))
		}
	}
}

func TestPairForAssignsBothEndpoints(t *testing.T) {
	lay, _ := NewLayout(8, 4)
	for src := 0; src < 8; src++ {
		for dest := 0; dest < 8; dest++ {
			p := lay.PairFor(src, dest)
			if !lay.inPair(p, src) || !lay.inPair(p, dest) {
				t.Errorf("pair %d for %d→%d misses an endpoint", p, src, dest)
			}
		}
	}
}

func TestScheduleRespectsCap(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{8, 4}, {9, 6}, {6, 2}, {12, 6}} {
		lay, err := NewLayout(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(lay.Schedule(), lay.K); err != nil {
			t.Errorf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if got := sched.MaxSimultaneous(lay.Schedule()); got != lay.K {
			t.Errorf("n=%d k=%d: max on %d, want %d", tc.n, tc.k, got, lay.K)
		}
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
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 1013, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStableAtCriticalRate(t *testing.T) {
	// n=8, k=4: paper's latency regime is ρ ≤ k²/(2n(2n−k)) = 1/12.
	tr := run(t, 8, 4, adversary.New(adversary.T(1, 12, 2), adversary.Uniform(8, 42)), 100000)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1/12:\n%s", tr.Summary())
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestLatencyWithinPaperBound(t *testing.T) {
	// Paper: latency ≤ 8(n²/k)(1+β/2k) for ρ ≤ k²/(2n(2n−k)).
	n, k, beta := 8, 4, int64(2)
	tr := run(t, n, k, adversary.New(adversary.T(1, 12, 2), adversary.Uniform(n, 7)), 100000)
	bound := 8 * int64(n) * int64(n) / int64(k) * (1 + beta/(2*int64(k))) // = 8n²/k · (1+β/2k)
	// Integer arithmetic floors (1+β/2k); recompute exactly: 8n²/k + 8n²β/(2k²).
	bound = 8*int64(n)*int64(n)/int64(k) + 8*int64(n)*int64(n)*beta/(2*int64(k)*int64(k))
	if tr.MaxLatency > bound {
		t.Errorf("max latency %d exceeds paper bound %d:\n%s", tr.MaxLatency, bound, tr.Summary())
	}
}

func TestDrainsCompletely(t *testing.T) {
	n := 8
	adv := adversary.New(adversary.T(1, 15, 2),
		adversary.Stop(adversary.Uniform(n, 11), 40000))
	tr := run(t, n, 4, adv, 100000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestSameSetTraffic(t *testing.T) {
	// Stations 0→1 share half-set 0: handled by the pair {0,1}.
	n := 8
	adv := adversary.New(adversary.T(1, 15, 1),
		adversary.Stop(adversary.SingleTarget(0, 1), 20000))
	tr := run(t, n, 4, adv, 60000)
	if tr.Pending() != 0 {
		t.Errorf("same-set packets stuck: pending=%d", tr.Pending())
	}
}

func TestSelfAddressed(t *testing.T) {
	n := 8
	adv := adversary.New(adversary.T(1, 15, 1),
		adversary.Stop(adversary.SingleTarget(3, 3), 20000))
	tr := run(t, n, 4, adv, 60000)
	if tr.Pending() != 0 {
		t.Errorf("self-addressed stuck: pending=%d", tr.Pending())
	}
}

func TestUnstableAbovePairFrequency(t *testing.T) {
	// A single cross-set flow is served once per m = 6 rounds; ρ = 1/5 >
	// 1/6 must overwhelm it (this is the sharpness of the paper's rate
	// condition).
	n := 8
	adv := adversary.New(adversary.T(1, 5, 1), adversary.SingleTarget(0, 7))
	tr := run(t, n, 4, adv, 60000)
	if tr.LooksStable() {
		t.Errorf("unexpectedly stable above 1/m:\n%s", tr.Summary())
	}
}

func TestUnstableAboveDirectObliviousCeiling(t *testing.T) {
	// Theorem 9 adversary from the published schedule: ρ = 1/4 >
	// k(k−1)/(n(n−1)) = 3/14.
	n, k := 8, 4
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.LeastPair(sys.Schedule, adversary.T(1, 4, 1))
	tr := metrics.NewTracker()
	tr.SampleEvery = 256
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 2003, Tracker: tr})
	if err := sim.Run(80000); err != nil {
		t.Fatal(err)
	}
	if tr.LooksStable() {
		t.Errorf("unexpectedly stable above direct-oblivious ceiling:\n%s", tr.Summary())
	}
}

func TestMinimalSystem(t *testing.T) {
	// n=3 → k=2, singleton half-sets, 3 pairs.
	adv := adversary.New(adversary.T(1, 10, 1),
		adversary.Stop(adversary.Uniform(3, 3), 20000))
	tr := run(t, 3, 2, adv, 60000)
	if tr.Pending() != 0 {
		t.Errorf("n=3 pending = %d:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestReplicaRingsConsistent(t *testing.T) {
	n, k := 8, 4
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 12, 2), adversary.Uniform(n, 5))
	sim := core.NewSim(sys, adv, core.Options{Strict: true})
	lay := sys.Stations[0].(*station).lay
	for r := 0; r < 5000; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < lay.NumPairs; p++ {
			first := sys.Stations[lay.members[p][0]].(*station)
			holder, phase := first.reps[first.local(p)].Token()
			for _, m := range lay.members[p][1:] {
				st := sys.Stations[m].(*station)
				if h, ph := st.reps[st.local(p)].Token(); h != holder || ph != phase {
					t.Fatalf("round %d: replicas for pair %d diverged", r, p)
				}
			}
		}
	}
}

func TestInfeasibleConfigRejected(t *testing.T) {
	if _, err := NewLayout(2, 2); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := New(8, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

// TestInPairMatchesMembers: the half-set test agrees with the member
// lists for every pair and station.
func TestInPairMatchesMembers(t *testing.T) {
	for n := 3; n <= 24; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				continue // no feasible k
			}
			for p := 0; p < lay.NumPairs; p++ {
				for st := 0; st < n; st++ {
					if got, want := lay.inPair(p, st), slices.Contains(lay.members[p], st); got != want {
						t.Errorf("n=%d k=%d: inPair(%d, %d) = %v, members %v", n, k, p, st, got, lay.members[p])
					}
				}
			}
		}
	}
}

// TestLocalMatchesMembers: a station's binary-search lookup of a pair
// finds that pair's slot in its membership list, for every pair it
// belongs to and every destination Inject routes through.
func TestLocalMatchesMembers(t *testing.T) {
	for n := 3; n <= 24; n++ {
		for k := 2; k <= n; k++ {
			lay, err := NewLayout(n, k)
			if err != nil {
				continue // no feasible k
			}
			for id := 0; id < n; id++ {
				s := newStation(id, lay)
				for i, p := range s.pairs {
					if got := s.local(p); got != i {
						t.Errorf("n=%d k=%d station %d: local(%d) = %d, want %d", n, k, id, p, got, i)
					}
				}
				for dest := 0; dest < n; dest++ {
					p := lay.PairFor(id, dest)
					if got := s.local(p); got >= len(s.pairs) || s.pairs[got] != p {
						t.Errorf("n=%d k=%d station %d: local(%d) = %d for dest %d, pairs %v", n, k, id, p, got, dest, s.pairs)
					}
				}
			}
		}
	}
}
