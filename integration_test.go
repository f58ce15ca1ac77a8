package earmac

// Cross-module integration tests: every registered algorithm is driven
// against multiple adversarial patterns under the strictest simulator
// settings — energy-cap validation, plain-packet validation, oblivious-
// schedule conformance, and exactly-once packet conservation — and must
// honor its declared properties end to end.

import (
	"fmt"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/ratio"
	"earmac/internal/registry"
	"earmac/internal/sched"
)

// integrationConfig gives each algorithm a configuration at which it is
// provably stable, so strict invariants plus draining can be asserted.
type integrationConfig struct {
	n, k       int
	rho        ratio.Rat
	beta       int64
	stopAfter  int64
	drainUntil int64
}

func configFor(alg string) integrationConfig {
	switch alg {
	case "orchestra":
		return integrationConfig{n: 6, rho: ratio.One(), beta: 2, stopAfter: 30000, drainUntil: 90000}
	case "count-hop":
		return integrationConfig{n: 6, rho: ratio.New(1, 2), beta: 2, stopAfter: 30000, drainUntil: 60000}
	case "adjust-window":
		// n=4: initial window 32768; stop after 3 windows, drain 3 more.
		return integrationConfig{n: 4, rho: ratio.New(2, 5), beta: 2, stopAfter: 98304, drainUntil: 196608}
	case "k-cycle":
		return integrationConfig{n: 7, k: 3, rho: ratio.New(1, 4), beta: 2, stopAfter: 40000, drainUntil: 90000}
	case "k-clique":
		return integrationConfig{n: 8, k: 4, rho: ratio.New(1, 13), beta: 2, stopAfter: 50000, drainUntil: 120000}
	case "k-subsets":
		return integrationConfig{n: 6, k: 3, rho: ratio.New(1, 6), beta: 2, stopAfter: 60000, drainUntil: 150000}
	case "k-subsets-rrw":
		return integrationConfig{n: 6, k: 3, rho: ratio.New(1, 6), beta: 2, stopAfter: 60000, drainUntil: 150000}
	case "aloha":
		// The randomized baseline sustains only ~k(k−1)/(kn(n−1)) per
		// targeted flow; keep the rate low so every pattern drains.
		return integrationConfig{n: 8, k: 4, rho: ratio.New(1, 30), beta: 2, stopAfter: 40000, drainUntil: 200000}
	case "mbtf":
		return integrationConfig{n: 6, rho: ratio.One(), beta: 2, stopAfter: 20000, drainUntil: 40000}
	case "rrw", "ofrrw":
		return integrationConfig{n: 6, rho: ratio.New(3, 4), beta: 2, stopAfter: 20000, drainUntil: 40000}
	default:
		panic("no integration config for " + alg)
	}
}

func patternsFor(cfg integrationConfig, seed int64) map[string]adversary.Pattern {
	n := cfg.n
	return map[string]adversary.Pattern{
		"uniform":       adversary.Uniform(n, seed),
		"single-target": adversary.SingleTarget(0, n-1),
		"hot-source":    adversary.HotSource(n/2, n),
		"round-robin":   adversary.RoundRobin(n),
		"self-loops":    adversary.SingleTarget(1, 1),
	}
}

// TestEveryAlgorithmEveryPatternStrict is the workhorse: all algorithms ×
// all patterns, strict mode, conservation checking, full drain.
func TestEveryAlgorithmEveryPatternStrict(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := configFor(alg)
		for patName, pat := range patternsFor(cfg, 17) {
			t.Run(fmt.Sprintf("%s/%s", alg, patName), func(t *testing.T) {
				sys, err := registry.Build(alg, cfg.n, cfg.k)
				if err != nil {
					t.Fatal(err)
				}
				typ := adversary.Type{Rho: cfg.rho, Beta: ratio.FromInt(cfg.beta)}
				adv := adversary.New(typ, adversary.Stop(pat, cfg.stopAfter))
				tr := metrics.NewTracker()
				sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 5003, Tracker: tr})
				if err := sim.Run(cfg.drainUntil); err != nil {
					t.Fatal(err)
				}
				if len(tr.Violations) > 0 {
					t.Errorf("violations: %v", tr.Violations)
				}
				if tr.Injected == 0 {
					t.Fatal("adversary injected nothing")
				}
				if tr.Pending() != 0 {
					t.Errorf("pending = %d of %d after drain", tr.Pending(), tr.Injected)
				}
				if tr.MaxEnergy > int64(sys.Info.EnergyCap) {
					t.Errorf("energy %d exceeds declared cap %d", tr.MaxEnergy, sys.Info.EnergyCap)
				}
				if sys.Info.PlainPacket && tr.ControlBits > 0 {
					t.Errorf("plain-packet algorithm transmitted %d control bits", tr.ControlBits)
				}
				// Collisions are the signature of the randomized baseline
				// only; every paper algorithm is collision-free by design.
				if alg != "aloha" && tr.CollisionRounds > 0 {
					t.Errorf("%d collisions in a deterministic schedule", tr.CollisionRounds)
				}
			})
		}
	}
}

// TestObliviousSchedulesAreValid verifies every oblivious algorithm's
// published schedule against its declared cap, and that the non-oblivious
// algorithms do not publish one.
func TestObliviousSchedulesAreValid(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := configFor(alg)
		sys, err := registry.Build(alg, cfg.n, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Info.Oblivious != (sys.Schedule != nil) {
			t.Errorf("%s: oblivious=%v but schedule presence=%v", alg, sys.Info.Oblivious, sys.Schedule != nil)
			continue
		}
		if sys.Schedule != nil {
			if err := sched.Validate(sys.Schedule, sys.Info.EnergyCap); err != nil {
				t.Errorf("%s: %v", alg, err)
			}
		}
	}
}

// TestEnergyAccountingMatchesSchedule cross-checks the mean energy of an
// oblivious run against the schedule's own station-round count.
func TestEnergyAccountingMatchesSchedule(t *testing.T) {
	sys, err := registry.Build("k-clique", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := sched.OnCounts(sys.Schedule)
	var perPeriod int64
	for _, c := range counts {
		perPeriod += c
	}
	period := sys.Schedule.Period()
	want := float64(perPeriod) / float64(period)

	adv := adversary.New(adversary.T(1, 20, 1), adversary.Uniform(8, 3))
	tr := metrics.NewTracker()
	sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr})
	rounds := 100 * period
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	if got := tr.MeanEnergy(); got != want {
		t.Errorf("mean energy %v != schedule's %v", got, want)
	}
}

// TestThroughputOrderingMatchesTable verifies the qualitative ordering of
// Table 1 at one shared configuration: at ρ just above k/n the oblivious
// algorithm collapses while Orchestra (non-oblivious, cap 3) holds; at
// ρ = 1 only Orchestra holds.
func TestThroughputOrderingMatchesTable(t *testing.T) {
	runAt := func(alg string, n, k int, rho ratio.Rat, pattern adversary.Pattern) bool {
		sys, err := registry.Build(alg, n, k)
		if err != nil {
			t.Fatal(err)
		}
		adv := adversary.New(adversary.Type{Rho: rho, Beta: ratio.FromInt(1)}, pattern)
		tr := metrics.NewTracker()
		tr.SampleEvery = 256
		sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr})
		if err := sim.Run(120000); err != nil {
			t.Fatal(err)
		}
		return tr.LooksStable()
	}
	n := 7
	// ρ = 1: Orchestra stable, Count-Hop not.
	if !runAt("orchestra", n, 0, ratio.One(), adversary.Uniform(n, 3)) {
		t.Error("Orchestra should be stable at ρ=1")
	}
	if runAt("count-hop", n, 0, ratio.One(), adversary.Uniform(n, 3)) {
		t.Error("Count-Hop should be unstable at ρ=1")
	}
	// ρ = 1/2 < 1: Count-Hop stable; 3-cycle (ceiling 3/7) not, under a
	// targeted flood.
	if !runAt("count-hop", n, 0, ratio.New(1, 2), adversary.Uniform(n, 3)) {
		t.Error("Count-Hop should be stable at ρ=1/2")
	}
	if runAt("k-cycle", n, 3, ratio.New(1, 2), adversary.SingleTarget(3, 6)) {
		t.Error("3-cycle should be unstable at ρ=1/2 under a single-station flood")
	}
}

// TestLatencyHierarchy checks the relative latency order the bounds
// predict at a common low rate: direct oblivious k-clique beats indirect
// k-cycle's worst case bound n·(32+β) > 8n²/k(1+β/2k) only for large k;
// at k=n/2-ish the clique should win on mean latency for pair traffic.
func TestLatencyHierarchy(t *testing.T) {
	// Modest claim that must hold: at the same low rate and same cap,
	// always-on RRW (cap n) beats every capped algorithm on mean latency.
	n := 8
	meanLat := func(alg string, k int) float64 {
		sys, err := registry.Build(alg, n, k)
		if err != nil {
			t.Fatal(err)
		}
		adv := adversary.New(adversary.T(1, 16, 1), adversary.Uniform(n, 5))
		tr := metrics.NewTracker()
		sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr})
		if err := sim.Run(100000); err != nil {
			t.Fatal(err)
		}
		if tr.Delivered == 0 {
			t.Fatalf("%s delivered nothing", alg)
		}
		return tr.MeanLatency()
	}
	rrw := meanLat("rrw", 0)
	for _, alg := range []string{"orchestra", "count-hop", "k-clique"} {
		if l := meanLat(alg, 4); l <= rrw {
			t.Errorf("%s mean latency %.1f unexpectedly beats always-on RRW %.1f", alg, l, rrw)
		}
	}
}
