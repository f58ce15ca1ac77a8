package randmac

import (
	"math/rand"
	"slices"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(1, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewLayout(5, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewLayout(5, 6, 0); err == nil {
		t.Error("k>n accepted")
	}
}

func TestOnSetProperties(t *testing.T) {
	lay, err := NewLayout(9, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 500; r++ {
		set := lay.OnSet(r)
		if len(set) != 4 {
			t.Fatalf("round %d: on-set size %d", r, len(set))
		}
		seen := map[int]bool{}
		for _, s := range set {
			if s < 0 || s >= 9 {
				t.Fatalf("round %d: station %d out of range", r, s)
			}
			if seen[s] {
				t.Fatalf("round %d: duplicate station %d", r, s)
			}
			seen[s] = true
		}
	}
}

func TestOnSetDeterministicAndPeriodic(t *testing.T) {
	a, _ := NewLayout(8, 3, 7)
	b, _ := NewLayout(8, 3, 7)
	for r := int64(0); r < 100; r++ {
		x, y := a.OnSet(r), b.OnSet(r)
		for i := range x {
			if x[i] != y[i] {
				t.Fatal("on-set not deterministic")
			}
		}
		z := a.OnSet(r + period)
		for i := range x {
			if x[i] != z[i] {
				t.Fatal("on-set not periodic")
			}
		}
	}
	c, _ := NewLayout(8, 3, 8)
	diff := false
	for r := int64(0); r < 20; r++ {
		x, y := a.OnSet(r), c.OnSet(r)
		for i := range x {
			if x[i] != y[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
}

// referenceOnSet is the on-set without a cache: a fresh identity
// permutation of [0, n) per call, its first k positions shuffled by the
// seeded Fisher-Yates walk.
func referenceOnSet(n, k int, seed uint64, round int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := seed ^ splitmix64(uint64(round%period)+1)
	for i := 0; i < k; i++ {
		state = splitmix64(state)
		j := i + int(state%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// cacheCases covers the smallest cap (k=2), a full on-set (k=n) and the
// default seed at the frontier's size.
var cacheCases = []struct {
	n, k int
	seed uint64
}{{2, 2, 1}, {5, 2, 9}, {8, 3, 7}, {9, 9, 42}, {24, 3, 0x6ea7_c0de}, {33, 17, 5}}

// cacheRounds draws rounds in shuffled order, each followed by a repeat,
// its period-wrapped twin and a neighbour, so the cache is hit, missed
// and re-filled in every order. It opens by leaving round 0, the round
// NewLayout caches, and coming back to it.
func cacheRounds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	rounds := []int64{1, 0, period, 0}
	for i := 0; i < 400; i++ {
		r := rng.Int63n(3 * period)
		rounds = append(rounds, r, r, r+period, r+1, r)
	}
	return rounds
}

func TestOnSetMatchesReference(t *testing.T) {
	for _, c := range cacheCases {
		lay, err := NewLayout(c.n, c.k, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cacheRounds(int64(c.n*64 + c.k)) {
			want := referenceOnSet(c.n, c.k, c.seed, r)
			if got := lay.OnSet(r); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d round %d: on-set %v, want %v", c.n, c.k, r, got, want)
			}
		}
	}
}

func TestScheduleMatchesReference(t *testing.T) {
	for _, c := range cacheCases {
		lay, err := NewLayout(c.n, c.k, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		s := lay.Schedule()
		rounds := cacheRounds(int64(c.n*64 + c.k + 1))
		for i := 1; i < len(rounds); i++ {
			// Alternate two rounds station by station: a cache that kept
			// either round's set answers the other one wrongly.
			a, b := rounds[i-1], rounds[i]
			onA, onB := referenceOnSet(c.n, c.k, c.seed, a), referenceOnSet(c.n, c.k, c.seed, b)
			for st := 0; st < c.n; st++ {
				if got, want := s.On(st, a), slices.Contains(onA, st); got != want {
					t.Fatalf("n=%d k=%d: On(%d, %d) = %v, want %v", c.n, c.k, st, a, got, want)
				}
				if got, want := s.On(st, b), slices.Contains(onB, st); got != want {
					t.Fatalf("n=%d k=%d: On(%d, %d) = %v, want %v", c.n, c.k, st, b, got, want)
				}
			}
		}
	}
}

func TestScheduleRespectsCap(t *testing.T) {
	lay, _ := NewLayout(8, 3, 1)
	s := lay.Schedule()
	// Validating the full 2^14 period is slow-ish; sample a prefix.
	probe := sched.Func{N: 8, P: 2048, F: s.On}
	if err := sched.Validate(probe, 3); err != nil {
		t.Error(err)
	}
	if got := sched.MaxSimultaneous(probe); got != 3 {
		t.Errorf("max simultaneous %d, want 3", got)
	}
}

func run(t *testing.T, n, k int, adv core.Adversary, rounds int64) *metrics.Tracker {
	t.Helper()
	sys, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 512
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 4999, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStableAtLowRate(t *testing.T) {
	tr := run(t, 8, 4, adversary.New(adversary.T(1, 50, 2), adversary.Uniform(8, 3)), 150000)
	if !tr.LooksStable() {
		t.Errorf("unstable at ρ=1/50:\n%s", tr.Summary())
	}
	if tr.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if len(tr.Violations) > 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
}

func TestCollisionsActuallyHappen(t *testing.T) {
	// The whole point of the baseline: contention produces collisions,
	// which the paper's deterministic algorithms never suffer.
	tr := run(t, 8, 4, adversary.New(adversary.T(1, 10, 4), adversary.Uniform(8, 5)), 60000)
	if tr.CollisionRounds == 0 {
		t.Error("no collisions at moderate load — baseline is not contending")
	}
}

func TestUnstableUnderTargetedFlow(t *testing.T) {
	// A single src→dest flow is co-scheduled a k(k−1)/(n(n−1)) ≈ 0.21
	// fraction of rounds, but the ALOHA gamble converts only ~1/k of
	// those into deliveries (~0.05/round). The flow collapses already at
	// ρ = 1/10 — half the rate the deterministic k-Subsets sustains on
	// the very same pair (Theorem 8) — which is the measured price of
	// randomization.
	tr := run(t, 8, 4, adversary.New(adversary.T(1, 10, 2), adversary.SingleTarget(0, 7)), 120000)
	if tr.LooksStable() {
		t.Errorf("ALOHA unexpectedly stable under a ρ=1/10 targeted flow:\n%s", tr.Summary())
	}
	if tr.QueueSlope() <= 0 {
		t.Errorf("queue slope %f not positive", tr.QueueSlope())
	}
}

func TestUniformCapacityBeatsTargeted(t *testing.T) {
	// Average-case vs worst-case: the same baseline that collapses under
	// a ρ=1/10 targeted flow absorbs spread traffic at ρ=1/5 — the gap
	// the paper's worst-case adversarial model is about.
	tr := run(t, 8, 4, adversary.New(adversary.T(1, 5, 2), adversary.Uniform(8, 7)), 120000)
	if !tr.LooksStable() {
		t.Errorf("ALOHA should absorb uniform ρ=1/5:\n%s", tr.Summary())
	}
}

func TestDrainsAtLowRate(t *testing.T) {
	adv := adversary.New(adversary.T(1, 60, 1),
		adversary.Stop(adversary.Uniform(8, 11), 60000))
	tr := run(t, 8, 4, adv, 200000)
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after long drain:\n%s", tr.Pending(), tr.Summary())
	}
}

func TestDirectAndPlainPacketDeclared(t *testing.T) {
	sys, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Info.Direct || !sys.Info.PlainPacket || !sys.Info.Oblivious {
		t.Errorf("property flags wrong: %+v", sys.Info)
	}
	if sys.Info.EnergyCap != 3 {
		t.Errorf("cap = %d", sys.Info.EnergyCap)
	}
}
