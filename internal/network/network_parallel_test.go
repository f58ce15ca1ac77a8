package network

// Tests for the parallel stepping machinery: the worker-count-independence
// contract of Step and the allocation-free steady state of the network
// round loop. The packet-id ring has its own tests in internal/idring.

import (
	"runtime"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/core"
	"earmac/internal/scenario"
)

// TestStepWorkerCountInvariance is the internal half of the determinism
// contract: the same network stepped with any worker count produces
// identical aggregate counters, per-channel counters, relay counts,
// violations, and in-flight totals. (The facade-level test additionally
// byte-compares Report JSON and recorded traces.)
func TestStepWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *Network {
		topo := mustCompile(t, Spec{Kind: Random, Channels: 6, N: 4, Seed: 3})
		net, err := New(topo, rrBuild(4), mkUniformAdversary(t, topo, adversary.T(1, 2, 6), 17), Options{
			Strict: true, CheckEvery: 503, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		if err := net.Run(3000); err != nil {
			t.Fatal(err)
		}
		return net
	}
	want := run(1)
	for _, workers := range []int{2, 6, 12} {
		got := run(workers)
		if got.Tracker().Counters != want.Tracker().Counters {
			t.Errorf("workers=%d: aggregate counters diverge:\ngot  %+v\nwant %+v",
				workers, got.Tracker().Counters, want.Tracker().Counters)
		}
		for c := 0; c < 6; c++ {
			if got.ChannelTracker(c).Counters != want.ChannelTracker(c).Counters {
				t.Errorf("workers=%d: channel %d counters diverge", workers, c)
			}
			if got.Relayed(c) != want.Relayed(c) {
				t.Errorf("workers=%d: channel %d relayed %d, want %d",
					workers, c, got.Relayed(c), want.Relayed(c))
			}
		}
		if got.InFlight() != want.InFlight() {
			t.Errorf("workers=%d: in-flight %d, want %d", workers, got.InFlight(), want.InFlight())
		}
		if len(got.Violations()) != len(want.Violations()) {
			t.Errorf("workers=%d: violations %v, want %v", workers, got.Violations(), want.Violations())
		}
	}
}

// TestStepWorkers pins the worker count New chooses: the size rule when
// Options.Workers is 0, an honoured explicit count, and serial stepping
// whenever a tracer is attached.
func TestStepWorkers(t *testing.T) {
	const x = teamCrossover
	cases := []struct {
		name                                 string
		requested, stations, channels, procs int
		traced                               bool
		want                                 int
	}{
		{"below crossover", 0, x - 1, 16, 2, false, 1},
		{"small channels, many cores", 0, 6, 16, 8, false, 1},
		{"at crossover", 0, x, 16, 2, false, 2},
		{"above crossover", 0, 2 * x, 16, 2, false, 2},
		{"above crossover, one core", 0, 2 * x, 16, 1, false, 1},
		{"fewer channels than cores", 0, 2 * x, 4, 8, false, 4},
		{"explicit below crossover", 3, 6, 16, 2, false, 3},
		{"explicit serial above crossover", 1, 2 * x, 16, 8, false, 1},
		{"explicit capped at channels", 32, 6, 16, 2, false, 16},
		{"traced above crossover", 0, 2 * x, 16, 8, true, 1},
		{"traced explicit", 4, 6, 16, 8, true, 1},
	}
	for _, c := range cases {
		if got := stepWorkers(c.requested, c.stations, c.channels, c.procs, c.traced); got != c.want {
			t.Errorf("%s: stepWorkers(%d, %d, %d, %d, %v) = %d, want %d",
				c.name, c.requested, c.stations, c.channels, c.procs, c.traced, got, c.want)
		}
	}
}

// TestTracerForcesSerialStepping: New resolves the worker count it
// reports through Workers from the options and the network's size, and
// a tracer overrides both an explicit count and the size rule.
func TestTracerForcesSerialStepping(t *testing.T) {
	const channels = 4
	topo := mustCompile(t, Spec{Kind: Line, Channels: channels, N: teamCrossover})
	tracer := func(int) core.Tracer { return nil }
	cases := []struct {
		name string
		opt  Options
		want int
	}{
		{"explicit", Options{Workers: channels}, channels},
		{"explicit, traced", Options{Workers: channels, Tracer: tracer}, 1},
		{"size rule", Options{}, min(runtime.GOMAXPROCS(0), channels)},
		{"size rule, traced", Options{Tracer: tracer}, 1},
	}
	for _, c := range cases {
		net, err := New(topo, rrBuild(teamCrossover), mkUniformAdversary(t, topo, adversary.T(1, 2, channels), 5), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Workers(); got != c.want {
			t.Errorf("%s: Workers() = %d, want %d", c.name, got, c.want)
		}
		net.Close()
	}
}

// TestNetworkZeroAllocs: after warmup the network round loop — relay
// hand-off, worker dispatch, sims, packet-id ring traffic, and the
// deterministic fold — runs without touching the allocator, whether the
// entry is the live budget-split adversary or per-channel replayers of
// a recorded run. SampleEvery < 0 disables the aggregate queue curve,
// the one steady-state append.
func TestNetworkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs-per-round is meaningless under the race detector")
	}
	const warmup, window = 20000, 2000
	topo := mustCompile(t, Spec{Kind: Line, Channels: 4, N: 6})
	build := func(entry []core.Adversary, workers int, rec EventSink) *Network {
		net, err := New(topo, func(ch int) (*core.System, error) {
			return orchestra.New(6)
		}, entry, Options{SampleEvery: -1, Workers: workers, Events: rec})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	live := func() []core.Adversary { return mkUniformAdversary(t, topo, adversary.T(1, 2, 4), 31) }
	var trace scenario.Trace
	recorded := build(live(), 1, entrySink{&trace})
	// Up to five windows, each run twice by AllocsPerRun: a replay past
	// the recording would measure idle rounds.
	if err := recorded.Run(warmup + 10*window); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		entry func() []core.Adversary
	}{
		{"live", live},
		{"replay", func() []core.Adversary { return NewReplaySource(&trace, topo.Channels()) }},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			net := build(c.entry(), workers, nil)
			if err := net.Run(warmup); err != nil {
				t.Fatal(err)
			}
			best := -1.0
			for w := 0; w < 5 && best != 0; w++ {
				allocs := testing.AllocsPerRun(1, func() {
					if err := net.Run(window); err != nil {
						t.Error(err)
					}
				})
				if best < 0 || allocs < best {
					best = allocs
				}
			}
			net.Close()
			if net.Tracker().Injected == 0 {
				t.Errorf("%s, workers=%d: no entry injections", c.name, workers)
			}
			if best != 0 {
				t.Errorf("%s, workers=%d: steady-state round loop allocates (%v allocs in the best window)",
					c.name, workers, best)
			}
		}
	}
}
