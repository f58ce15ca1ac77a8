package earmac

// Regression tests for the simulator's allocation-free fast path: the
// steady-state round loop must not touch the allocator (the perf floor
// the benchmark pipeline gates on), and the fast path must produce
// exactly the same flat counters as the fully-checked path.

import (
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/kclique"
	"earmac/internal/algorithms/kcycle"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/algorithms/randmac"
	"earmac/internal/core"
	"earmac/internal/mac/duty"
	"earmac/internal/metrics"
	"earmac/internal/ratio"
	"earmac/internal/scenario"
)

// steadyAllocsPerRound warms a fast-path simulation up, then measures the
// allocations per simulated round.
func steadyAllocsPerRound(t *testing.T, sys *core.System, adv core.Adversary, warmup, measure int64) float64 {
	t.Helper()
	return steadyAllocs(t, sys, adv, core.Options{}, warmup, measure) / float64(measure)
}

// steadyAllocs warms a simulation on opt up, then measures the
// allocations over measure rounds. Queue high-water records still grow
// the pools amortized-logarithmically ever more rarely, so it returns the
// minimum over a few measurement windows: a zero window proves the round
// loop itself never touches the allocator.
func steadyAllocs(t *testing.T, sys *core.System, adv core.Adversary, opt core.Options, warmup, measure int64) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocs-per-round is meaningless under the race detector")
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 0 // flat counters only: no time-series appends
	opt.Tracker = tr
	sim := core.NewSim(sys, adv, opt)
	wantFast := !opt.Strict && opt.CheckEvery == 0
	if sim.FastPath() != wantFast {
		t.Fatalf("fast path selected = %v, want %v", sim.FastPath(), wantFast)
	}
	if err := sim.Run(warmup); err != nil {
		t.Fatal(err)
	}
	best := -1.0
	for window := 0; window < 5; window++ {
		allocs := testing.AllocsPerRun(1, func() {
			if err := sim.Run(measure); err != nil {
				t.Error(err)
			}
		})
		if best < 0 || allocs < best {
			best = allocs
		}
		if best == 0 {
			break
		}
	}
	return best
}

func TestFastPathZeroAllocsKSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := ksubsets.New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 1/6 < k(k−1)/(n(n−1)) = 1/5: stable, queues bounded.
	adv := adversary.New(adversary.T(1, 6, 2), adversary.Uniform(6, 42))
	perRound := steadyAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("k-subsets steady state allocates %.4f allocs/round, want 0", perRound)
	}
}

func TestFastPathZeroAllocsRandMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := randmac.New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Far below ALOHA's effective throughput so the queues stay bounded.
	adv := adversary.New(adversary.T(1, 40, 2), adversary.Uniform(8, 7))
	perRound := steadyAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("aloha steady state allocates %.4f allocs/round, want 0", perRound)
	}
}

// TestFastPathZeroAllocsDutyCycled extends the perf floor to the ISSUE 8
// energy layer: a duty-cycled wrap (sleep-after-idle plus a wake
// schedule) must not cost the fast path its allocation-free steady
// state — the wrapper is pure bookkeeping over the inner protocol.
func TestFastPathZeroAllocsDutyCycled(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := randmac.New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, grp := duty.Wrap(sys, duty.Params{SleepAfterIdle: 16, WakeEvery: 8})
	adv := adversary.New(adversary.T(1, 40, 2), adversary.Uniform(8, 7))
	perRound := steadyAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("duty-cycled aloha steady state allocates %.4f allocs/round, want 0", perRound)
	}
	if grp.SleepRounds() == 0 {
		t.Error("duty-cycling never suppressed a listen at ρ = 1/40")
	}
}

// TestFastPathZeroAllocsSparseSweep pins the sparse sweep to the perf
// floor: busy n = 24 aloha at ρ = 1/32, alone and duty-cycled, visits
// its 3 awake stations and its injected ones each round and catches
// stations up over the Off rounds they skipped, without touching the
// allocator.
func TestFastPathZeroAllocsSparseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	for _, p := range []duty.Params{{}, {SleepAfterIdle: 8, WakeEvery: 64}} {
		sys, err := randmac.New(24, 3)
		if err != nil {
			t.Fatal(err)
		}
		sys, _ = duty.Wrap(sys, p)
		if !core.NewSim(sys, nil, core.Options{}).Sparse() {
			t.Fatalf("duty %+v: the sim does not sweep sparsely", p)
		}
		adv := adversary.New(adversary.T(1, 32, 1), adversary.Uniform(24, 7))
		perRound := steadyAllocsPerRound(t, sys, adv, 60000, 30000)
		if perRound != 0 {
			t.Errorf("duty %+v: sparse steady state allocates %.4f allocs/round, want 0", p, perRound)
		}
	}
}

// TestFastPathZeroAllocsStochasticScenario pins the seed/RNG plumbing
// of the scenario subsystem to the same perf floor as the hand-written
// patterns: a phased stochastic workload — quiet warm-up, Bernoulli
// body, open-ended Poisson-batch tail — must run the steady-state round
// loop without touching the allocator.
func TestFastPathZeroAllocsStochasticScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := orchestra.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := scenario.NewPhased([]scenario.Segment{
		{Pattern: scenario.Quiet(), Rounds: 512},
		{Pattern: scenario.Bernoulli(6, 11, 1, 4), Rounds: 4096},
		{Pattern: scenario.PoissonBatch(6, 13, 1, 4), Rounds: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 1/4 ≪ 1: orchestra is stable at ρ = 1, so queues stay bounded.
	adv := adversary.New(adversary.T(1, 4, 2), ph)
	perRound := steadyAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("phased stochastic steady state allocates %.4f allocs/round, want 0", perRound)
	}
}

// TestFastPathZeroAllocsReplay pins trace replay to the same floor: a
// scenario.Replayer re-injecting a recorded run keeps the steady-state
// round loop allocation-free.
func TestFastPathZeroAllocsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	const warmup, measure = 20000, 10000
	build := func() *core.System {
		sys, err := orchestra.New(6)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	var events []scenario.Event
	rec := core.NewSim(build(), adversary.New(adversary.T(1, 4, 2), adversary.Uniform(6, 5)), core.Options{
		InjectionObserver: func(round int64, injs []core.Injection) {
			ev := scenario.Event{Round: round}
			for _, in := range injs {
				ev.Injs = append(ev.Injs, [2]int{in.Station, in.Dest})
			}
			events = append(events, ev)
		},
	})
	// steadyAllocs runs up to five windows, and AllocsPerRun runs each
	// twice; a replay past the recording would measure idle rounds.
	if err := rec.Run(warmup + 10*measure); err != nil {
		t.Fatal(err)
	}
	perRound := steadyAllocsPerRound(t, build(), scenario.NewReplayer(events), warmup, measure)
	if perRound != 0 {
		t.Errorf("replayed steady state allocates %.4f allocs/round, want 0", perRound)
	}
}

// TestCheckedConservationZeroAllocs extends the allocation floor to the
// strict, conservation-checked loop that expt.Run and earmac.Run use:
// the per-round ledger bookkeeping and the periodic CheckConservation
// (AppendHeld into one reused buffer, holder counts in the ledger's
// ring) must not touch the allocator once warm. The window spans 20
// checks.
func TestCheckedConservationZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	const every = 1009
	cases := []struct {
		name  string
		build func() (*core.System, error)
		typ   adversary.Type
		seed  int64
	}{
		{"orchestra-n6-rho1", func() (*core.System, error) { return orchestra.New(6) }, adversary.T(1, 1, 2), 102},
		{"3-cycle-n7-rho1/4", func() (*core.System, error) { return kcycle.New(7, 3) }, adversary.T(1, 4, 2), 108},
		{"4-clique-n8-rho1/12", func() (*core.System, error) { return kclique.New(8, 4) }, adversary.T(1, 12, 2), 109},
		{"3-subsets-rrw-n6-rho1/10", func() (*core.System, error) { return ksubsets.NewRRW(6, 3) }, adversary.T(1, 10, 2), 110},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			adv := adversary.New(c.typ, adversary.Uniform(sys.N(), c.seed))
			allocs := steadyAllocs(t, sys, adv, core.Options{Strict: true, CheckEvery: every}, 60000, 20*every)
			if allocs != 0 {
				t.Errorf("checked steady state allocates %.0f times per %d rounds, want 0", allocs, 20*every)
			}
		})
	}
}

// equivRun executes one configuration on the given options and returns
// the flat counters.
func equivRun(t *testing.T, build func() (*core.System, error), mkAdv func() core.Adversary,
	rounds int64, opt core.Options) metrics.Counters {
	t.Helper()
	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker()
	opt.Tracker = tr
	sim := core.NewSim(sys, mkAdv(), opt)
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr.Counters
}

// TestFastCheckedEquivalence runs identical seeds through the fast path
// and the fully-checked path and requires bit-identical flat counters.
func TestFastCheckedEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*core.System, error)
		mkAdv  func() core.Adversary
		rounds int64
	}{
		{
			name:  "ksubsets-uniform",
			build: func() (*core.System, error) { return ksubsets.New(6, 3) },
			mkAdv: func() core.Adversary {
				return adversary.New(adversary.T(1, 6, 2), adversary.Uniform(6, 42))
			},
			rounds: 30000,
		},
		{
			name:  "aloha-uniform",
			build: func() (*core.System, error) { return randmac.New(8, 4) },
			mkAdv: func() core.Adversary {
				return adversary.New(adversary.T(1, 40, 2), adversary.Uniform(8, 7))
			},
			rounds: 30000,
		},
		{
			name:  "aloha-maxqueue-adaptive",
			build: func() (*core.System, error) { return randmac.New(6, 3) },
			mkAdv: func() core.Adversary {
				return adversary.NewMaxQueue(6, adversary.Type{
					Rho: ratio.New(1, 30), Beta: ratio.FromInt(2),
				})
			},
			rounds: 20000,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast := equivRun(t, c.build, c.mkAdv, c.rounds, core.Options{})
			checked := equivRun(t, c.build, c.mkAdv, c.rounds, core.Options{ForceChecked: true})
			if fast != checked {
				t.Errorf("fast and checked counters differ:\nfast:    %+v\nchecked: %+v", fast, checked)
			}
		})
	}
}
