// Command earmac-bench measures simulator performance and writes a
// schema-stable BENCH_<rev>.json consumed by the CI regression gate and
// by the repository's perf trajectory.
//
// Two benchmark families run on the simulator's allocation-free fast
// path (strict checking off — correctness of the same configurations is
// covered by cmd/earmac-table and the test suite):
//
//   - the Table 1 set: every row of the paper's evaluation at the quick
//     or full horizon, and
//   - substrate micro-benchmarks: the prior-work broadcast substrates
//     (MBTF, RRW, OF-RRW), two steady-state routing workloads that must
//     stay allocation-free, and a raw packet-queue op mix.
//
// Every row reports throughput (Mrounds/s), allocs/round, and the
// deterministic simulation outputs queue_max and energy; the file also
// carries a pure-CPU calibration scalar so throughput can be compared
// across machines (see internal/benchcmp).
//
// Usage:
//
//	earmac-bench -quick -out BENCH_abc123.json
//	earmac-bench -quick -baseline BENCH_baseline.json   # CI gate: exit 1 on regression
//	earmac-bench                                        # full (4×) horizons
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/algorithms/randmac"
	"earmac/internal/benchcmp"
	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/expt"
	"earmac/internal/mac"
	"earmac/internal/mac/duty"
	"earmac/internal/metrics"
	"earmac/internal/network"
	"earmac/internal/pktq"
	"earmac/internal/prof"
	"earmac/internal/ratio"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "quick horizons, the CI setting (default: full horizons, 4x longer)")
		out      = flag.String("out", "", "output path (default BENCH_<rev>.json)")
		rev      = flag.String("rev", "", "revision stamp (default: git rev-parse --short HEAD)")
		baseline = flag.String("baseline", "", "compare against this bench file and exit 1 on regression")
		speedTol = flag.Float64("speed-tol", benchcmp.DefaultSpeedDropTolerance,
			"permitted relative Mrounds/s drop vs the baseline (0 = gate any drop)")
		repsFlag = flag.Int("reps", 5, "repetitions per row (best throughput wins, damping scheduler noise)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	ps, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := ps.Stop(); err != nil {
			fail(err)
		}
	}()
	scale := expt.Full
	if *quick {
		scale = expt.Quick
	}

	r := *rev
	if r == "" {
		r = gitRev()
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", r)
	}

	file := benchcmp.File{
		Schema:    benchcmp.Schema,
		Rev:       r,
		GoVersion: runtime.Version(),
		Quick:     *quick,
	}
	reps := *repsFlag
	if reps < 1 {
		reps = 1
	}
	fmt.Fprintf(os.Stderr, "earmac-bench: calibrating...")
	file.CalibrationMops = calibrate(reps)
	fmt.Fprintf(os.Stderr, " %.0f Mops\n", file.CalibrationMops)
	for _, spec := range expt.Table1(scale) {
		file.Rows = append(file.Rows, benchSpec(spec, reps))
	}
	file.Rows = append(file.Rows, sparseRows(scale, reps)...)
	file.Rows = append(file.Rows, substrateRows(scale, reps)...)
	file.Rows = append(file.Rows, networkRows(scale, reps)...)
	assertTwins(file.Rows)
	for _, row := range file.Rows {
		fmt.Fprintf(os.Stderr, "earmac-bench: %-14s %8.3f Mrounds/s  %7.4f allocs/round  queue_max=%d\n",
			row.ID, row.MroundsPerS, row.AllocsPerRound, row.QueueMax)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "earmac-bench: wrote %s (%d rows)\n", path, len(file.Rows))

	if *baseline != "" {
		base, err := benchcmp.Load(*baseline)
		if err != nil {
			fail(err)
		}
		res := benchcmp.Compare(base, file, benchcmp.Options{
			SpeedDropTolerance: *speedTol,
			AllocsSlack:        benchcmp.DefaultAllocsSlack,
		})
		fmt.Fprintf(os.Stderr, "earmac-bench: compared %d rows vs %s (calibration ratio %.2f)\n",
			res.Compared, *baseline, res.Ratio)
		for _, id := range res.New {
			fmt.Fprintf(os.Stderr, "earmac-bench: new row %s (not in baseline; informational)\n", id)
		}
		if !res.OK() {
			for _, f := range res.Findings {
				fmt.Fprintf(os.Stderr, "earmac-bench: REGRESSION %s\n", f)
			}
			ps.Stop() // os.Exit skips the deferred flush
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "earmac-bench: no regressions")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "earmac-bench:", err)
	os.Exit(1)
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// mix64 is the splitmix64 finalizer — the fixed pure-CPU workload used
// for calibration and the deterministic op-mix driver for the queue
// micro-benchmark.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// calibrate times a fixed pure-CPU workload (the splitmix64 mix) and
// returns its speed in millions of operations per second, best of reps
// runs — the same noise-damping the benchmark rows get, since this
// scalar rescales the whole regression gate. The same workload on the
// baseline machine anchors cross-machine throughput comparisons.
func calibrate(reps int) float64 {
	const iters = 1 << 25
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x += 0x9e3779b97f4a7c15
			x = mix64(x)
		}
		elapsed := time.Since(start).Seconds()
		calibSink = x
		if mops := float64(iters) / elapsed / 1e6; mops > best {
			best = mops
		}
	}
	return best
}

// measure runs a simulation with no validator attached reps times — a
// fresh system and adversary per repetition, so the fixed seeds make
// queue_max and energy identical across repetitions — and returns the
// row with the best throughput and the fewest allocations (scheduler
// noise only ever slows a run down or interleaves a GC; it never speeds
// one up).
func measure(id, label string, build func() (*core.System, core.Adversary), rounds int64, reps int) benchcmp.Row {
	return measureOpt(id, label, build, rounds, reps, false)
}

// measureOpt is measure with the quiescence engine's escape hatch
// exposed, so a ".noskip" twin can run the identical configuration on
// the classic per-round loop.
func measureOpt(id, label string, build func() (*core.System, core.Adversary), rounds int64, reps int, noskip bool) benchcmp.Row {
	row := benchcmp.Row{ID: id, Label: label, Rounds: rounds}
	for rep := 0; rep < reps; rep++ {
		sys, adv := build()
		tr := metrics.NewTracker()
		tr.SampleEvery = 0
		sim := core.NewSim(sys, adv, core.Options{Tracker: tr, NoSkip: noskip})

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := sim.Run(rounds); err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)

		speed := float64(rounds) / elapsed / 1e6
		allocs := float64(after.Mallocs-before.Mallocs) / float64(rounds)
		if rep == 0 || speed > row.MroundsPerS {
			row.MroundsPerS = speed
		}
		if rep == 0 || allocs < row.AllocsPerRound {
			row.AllocsPerRound = allocs
		}
		row.QueueMax = tr.MaxQueue
		row.Energy = tr.MeanEnergy()
	}
	return row
}

// benchSpec runs one Table 1 row with no validator attached, with the
// same system, adversary, and seed the experiment harness uses.
func benchSpec(s expt.Spec, reps int) benchcmp.Row {
	return measure(s.ID, s.Label, func() (*core.System, core.Adversary) {
		sys, adv, err := s.Instantiate()
		if err != nil {
			fail(err)
		}
		return sys, adv
	}, s.Rounds, reps)
}

// sparseRows measures the quiescence fast-forward engine (DESIGN.md
// §16) on sparse single-channel workloads: at ρ = 1/1024 the entry
// bucket starves for ~1024 rounds after each spend, each injected
// packet drains within a few dozen rounds, and the engine's closed-form
// span skip covers almost the whole run in O(1) jumps. T1.duty adds
// duty-cycling at the entry rate one channel of a 16-channel frontier
// sees (ρ = 1/16384): its spans end at every 64th round, a wake round,
// which the engine ticks as the inner idle round instead of sweeping
// the 24 stations. It runs half T1.sparse's rounds, which keeps its
// 24-station ".noskip" twin to about 4 s of a quick run. T1.busy is the
// same system at ρ = 1/32, where queues rarely all drain: most rounds
// are busy, and the sparse sweep visits each one's 3 awake stations and
// its injected ones instead of all 24. It runs a quarter of T1.sparse's
// rounds, which keeps the pair to about 5 s of a quick run. Each
// ".noskip" twin runs the identical configuration on the classic
// per-round loop, which visits every station every round; assertTwins
// gates their deterministic outputs bit-identical on every bench run,
// the same contract the ".ser" rows pin for worker counts.
func sparseRows(scale expt.Scale, reps int) []benchcmp.Row {
	rounds := int64(2000000)
	if scale == expt.Full {
		rounds *= 4
	}
	build := func() (*core.System, core.Adversary) {
		sys, err := ksubsets.New(6, 3)
		if err != nil {
			fail(err)
		}
		return sys, adversary.New(adversary.T(1, 1024, 1), adversary.Uniform(6, 42))
	}
	buildDuty := func(rhoDen int64) func() (*core.System, core.Adversary) {
		return func() (*core.System, core.Adversary) {
			sys, err := randmac.New(24, 3)
			if err != nil {
				fail(err)
			}
			sys, _ = duty.Wrap(sys, duty.Params{SleepAfterIdle: 8, WakeEvery: 64})
			return sys, adversary.New(adversary.T(1, rhoDen, 1), adversary.Uniform(24, 42))
		}
	}
	return []benchcmp.Row{
		measureOpt("T1.sparse", "3-subsets sparse @ ρ=1/1024 β=1, n=6 (span skipping)", build, rounds, reps, false),
		measureOpt("T1.sparse.noskip", "3-subsets sparse @ ρ=1/1024 β=1, n=6, per-round loop", build, rounds, reps, true),
		measureOpt("T1.duty", "3-aloha duty 8/64 @ ρ=1/16384 β=1, n=24 (ticked wakes)", buildDuty(16384), rounds/2, reps, false),
		measureOpt("T1.duty.noskip", "3-aloha duty 8/64 @ ρ=1/16384 β=1, n=24, per-round loop", buildDuty(16384), rounds/2, reps, true),
		measureOpt("T1.busy", "3-aloha duty 8/64 @ ρ=1/32 β=1, n=24 (sparse sweeps)", buildDuty(32), rounds/4, reps, false),
		measureOpt("T1.busy.noskip", "3-aloha duty 8/64 @ ρ=1/32 β=1, n=24, per-round loop", buildDuty(32), rounds/4, reps, true),
	}
}

// substrateRows benchmarks the simulator substrate: the prior-work
// broadcast algorithms at their claimed rates, two steady-state routing
// workloads that must stay allocation-free with no validator attached,
// and the raw packet queue.
func substrateRows(scale expt.Scale, reps int) []benchcmp.Row {
	rounds := int64(150000)
	if scale == expt.Full {
		rounds *= 4
	}
	var rows []benchcmp.Row

	for _, c := range []struct {
		id, alg    string
		build      func(n int) *core.System
		rhoN, rhoD int64
	}{
		{"SUB.mbtf", "mbtf", broadcast.NewMBTFSystem, 1, 1},
		{"SUB.rrw", "rrw", broadcast.NewRRWSystem, 3, 4},
		{"SUB.ofrrw", "ofrrw", broadcast.NewOFRRWSystem, 3, 4},
	} {
		c := c
		rows = append(rows, measure(c.id, fmt.Sprintf("%s @ ρ=%d/%d, n=8", c.alg, c.rhoN, c.rhoD),
			func() (*core.System, core.Adversary) {
				typ := adversary.Type{Rho: ratio.New(c.rhoN, c.rhoD), Beta: ratio.FromInt(2)}
				return c.build(8), adversary.New(typ, adversary.Uniform(8, 11))
			}, rounds, reps))
	}

	rows = append(rows, measure("SUB.ksubsets", "3-subsets steady state @ ρ=1/6, n=6",
		func() (*core.System, core.Adversary) {
			sys, err := ksubsets.New(6, 3)
			if err != nil {
				fail(err)
			}
			return sys, adversary.New(adversary.T(1, 6, 2), adversary.Uniform(6, 42))
		}, rounds, reps))

	rows = append(rows, measure("SUB.aloha", "4-aloha steady state @ ρ=1/40, n=8",
		func() (*core.System, core.Adversary) {
			sys, err := randmac.New(8, 4)
			if err != nil {
				fail(err)
			}
			return sys, adversary.New(adversary.T(1, 40, 2), adversary.Uniform(8, 7))
		}, rounds, reps))

	rows = append(rows, pktqRow(rounds*4, reps))
	return rows
}

// networkRows measures the multi-channel topology layer end to end:
// orchestra replica sets under the budget-split network adversary,
// relays included — the loop the network regression gate watches.
// Rounds are network rounds (each advances all C channel sims), so the
// per-channel step rate is MroundsPerS × C.
//
// Topology shapes scale C from 4 to 1024; each parallel row (n=6 rows
// force GOMAXPROCS workers; NET.grid16n256, above the size rule's
// crossover, leaves them to it) is paired with a .ser twin (workers =
// 1), and the pair's deterministic outputs are asserted identical — the
// worker-count-independence contract, gated on every bench run. Rows
// warm up before the measured window so steady-state allocs/round is 0
// (buffer growth and ring sizing settle during warmup); NET.grid16n256
// is the exception, see its comment.
func networkRows(scale expt.Scale, reps int) []benchcmp.Row {
	mult := int64(1)
	if scale == expt.Full {
		mult = 4
	}
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		id, label string
		spec      network.Spec
		beta      int64
		rounds    int64
		workers   int    // 0: the network's size rule
		mode      string // "" plain orchestra, "jam" ISSUE 8 loop, "frontier" sparse jam+duty
		noskip    bool
	}{
		{"NET.line4", "orchestra line ×4 @ ρ=1/2 β=4, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Line, Channels: 4, N: 6}, 4, 100000, procs, "", false},
		{"NET.line4.ser", "orchestra line ×4 @ ρ=1/2 β=4, n=6, serial",
			network.Spec{Kind: network.Line, Channels: 4, N: 6}, 4, 100000, 1, "", false},
		{"NET.star64", "orchestra star ×64 @ ρ=1/2 β=64, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Star, Channels: 64, N: 6}, 64, 20000, procs, "", false},
		{"NET.star64.ser", "orchestra star ×64 @ ρ=1/2 β=64, n=6, serial",
			network.Spec{Kind: network.Star, Channels: 64, N: 6}, 64, 20000, 1, "", false},
		{"NET.grid64", "orchestra grid 8×8 @ ρ=1/2 β=64, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Grid, Channels: 64, N: 6}, 64, 20000, procs, "", false},
		{"NET.rand64", "orchestra random ×64 seed 9 @ ρ=1/2 β=64, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Random, Channels: 64, N: 6, Seed: 9}, 64, 20000, procs, "", false},
		{"NET.clique1024", "orchestra clique ×1024 @ ρ=1/2 β=1024, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Clique, Channels: 1024, N: 6}, 1024, 1500, procs, "", false},
		{"NET.clique1024.ser", "orchestra clique ×1024 @ ρ=1/2 β=1024, n=6, serial",
			network.Spec{Kind: network.Clique, Channels: 1024, N: 6}, 1024, 1500, 1, "", false},
		// Above the size rule's crossover, so the team steps it. It times
		// orchestra's learning phase, not a steady state: at n=256 each
		// station allocates the 2·n mask buffers its conductors teach
		// lazily, one season at a time, for about 10^5 rounds, so the
		// row reads ~18 allocs/round and its queue still grows. Warming
		// up past that would cost minutes a run.
		{"NET.grid16n256", "orchestra grid 4×4 @ ρ=1/2 β=16, n=256, workers by size",
			network.Spec{Kind: network.Grid, Channels: 16, N: 256}, 16, 2000, 0, "", false},
		{"NET.grid16n256.ser", "orchestra grid 4×4 @ ρ=1/2 β=16, n=256, serial",
			network.Spec{Kind: network.Grid, Channels: 16, N: 256}, 16, 2000, 1, "", false},
		// The ISSUE 8 disruption loop: duty-cycled aloha (the Tolerant
		// algorithm) under the budgeted jammer — jam flag selection,
		// disrupt plumbing, drop reclamation, and the duty wrapper all on
		// the measured path.
		{"NET.jam16", "aloha line ×16 jammed @ ρ=1/4 β=16 ρ_j=1/4 duty 32/16, n=6, workers=GOMAXPROCS",
			network.Spec{Kind: network.Line, Channels: 16, N: 6}, 16, 50000, procs, "jam", false},
		{"NET.jam16.ser", "aloha line ×16 jammed @ ρ=1/4 β=16 ρ_j=1/4 duty 32/16, n=6, serial",
			network.Spec{Kind: network.Line, Channels: 16, N: 6}, 16, 50000, 1, "jam", false},
		// The energy frontier under the quiescence engine: the jam+duty
		// shape in its sparse regime — n=24 per channel at a global
		// entry rate of ρ=1/1024 and a long duty sleep, where the duty
		// wrapper's zero-energy idle profile keeps almost every channel
		// lazy: a duty wake costs a lazy channel one O(1) tick, the
		// network spans the rounds between jams and wakes when every
		// channel is lazy, and a busy channel's round visits its 3
		// awake stations and its injected ones. The ".noskip" twin
		// forces the per-round loop, which sweeps all 24 stations of
		// every channel every round; assertTwins gates the pair
		// bit-identical on every run.
		{"NET.frontier16", "aloha line ×16 jammed @ ρ=1/1024 β=16 ρ_j=1/4 duty 8/256, n=24, quiescent ticks",
			network.Spec{Kind: network.Line, Channels: 16, N: 24}, 16, 50000, 1, "frontier", false},
		{"NET.frontier16.noskip", "aloha line ×16 jammed @ ρ=1/1024 β=16 ρ_j=1/4 duty 8/256, n=24, per-round loop",
			network.Spec{Kind: network.Line, Channels: 16, N: 24}, 16, 50000, 1, "frontier", true},
	}
	// Compile each distinct topology once: the Topology is immutable and
	// shared across repetitions and worker-count twins (the clique-1024
	// all-pairs BFS is the expensive part, not the stepping).
	topos := map[string]*network.Topology{}
	var rows []benchcmp.Row
	for _, c := range cases {
		key := fmt.Sprintf("%+v", c.spec)
		topo := topos[key]
		if topo == nil {
			var err error
			if topo, err = network.Compile(c.spec); err != nil {
				fail(fmt.Errorf("%s: %w", c.id, err))
			}
			topos[key] = topo
		}
		rows = append(rows, measureNet(c.id, c.label, topo, c.beta, c.rounds*mult, c.workers, reps, c.mode, c.noskip))
	}
	return rows
}

// assertTwins enforces the twin contracts on every bench run, CI's gate
// included: a ".ser" row must match its parallel base row (the
// worker-count-independence contract, DESIGN.md §13) and a ".noskip"
// row must match its base row (the fast-path bit-identity contract of
// the quiescence engine and the sparse sweep, DESIGN.md §16) on the
// deterministic outputs.
func assertTwins(rows []benchcmp.Row) {
	byID := make(map[string]benchcmp.Row, len(rows))
	for _, r := range rows {
		byID[r.ID] = r
	}
	for _, r := range rows {
		var base, contract string
		switch {
		case strings.HasSuffix(r.ID, ".ser"):
			base, contract = strings.TrimSuffix(r.ID, ".ser"), "worker-count independence"
		case strings.HasSuffix(r.ID, ".noskip"):
			base, contract = strings.TrimSuffix(r.ID, ".noskip"), "fast-path bit-identity"
		default:
			continue
		}
		p, ok := byID[base]
		if !ok {
			fail(fmt.Errorf("twin row %s has no base row %s", r.ID, base))
		}
		if p.QueueMax != r.QueueMax || p.Energy != r.Energy {
			fail(fmt.Errorf("%s and %s diverge: queue_max %d vs %d, energy %v vs %v (%s broken)",
				p.ID, r.ID, p.QueueMax, r.QueueMax, p.Energy, r.Energy, contract))
		}
	}
}

// measureNet is measure for a network row: fresh adversary and channel
// systems per repetition over a shared compiled topology, a warmup
// window before the allocation accounting, best-of-reps throughput.
// Mode "jam" runs the disruption loop instead: duty-cycled aloha
// replica sets at ρ = 1/4 under a fresh (ρ_j = 1/4, β_j = 2) jammer per
// repetition, deterministic in the fixed seeds like the rest. Mode
// "frontier" is the same machinery in its sparse regime — ρ = 1/1024
// entries and a long (8/256) duty cycle, so nearly every round is an
// O(1) quiescent tick when the engine is on. noskip forces the classic
// per-round loop (network.Options.NoSkip) for the quiescence twin rows.
func measureNet(id, label string, topo *network.Topology, beta, rounds int64, workers, reps int, mode string, noskip bool) benchcmp.Row {
	warmup := rounds / 10
	if warmup > 2000 {
		warmup = 2000
	}
	if warmup < 200 {
		warmup = 200
	}
	row := benchcmp.Row{ID: id, Label: label, Rounds: rounds}
	for rep := 0; rep < reps; rep++ {
		pats := make([]adversary.Pattern, topo.Channels())
		for c := range pats {
			pats[c] = adversary.Uniform(topo.Stations(), 31+int64(c)*1000003)
		}
		entry, build := adversary.T(1, 2, beta), func(ch int) (*core.System, error) {
			return orchestra.New(topo.StationsPerChannel())
		}
		opts := network.Options{SampleEvery: -1, Workers: workers, NoSkip: noskip}
		if mode == "jam" || mode == "frontier" {
			entryDen, dutyParams := int64(4), duty.Params{SleepAfterIdle: 32, WakeEvery: 16}
			if mode == "frontier" {
				entryDen, dutyParams = 1024, duty.Params{SleepAfterIdle: 8, WakeEvery: 256}
			}
			entry = adversary.T(1, entryDen, beta)
			build = func(ch int) (*core.System, error) {
				sys, err := randmac.NewSeeded(topo.StationsPerChannel(), 3, 17)
				if err != nil {
					return nil, err
				}
				sys, _ = duty.Wrap(sys, dutyParams)
				return sys, nil
			}
			opts.Disruptor = network.NewJammer(adversary.T(1, 4, 2), topo.Channels(), 31)
		}
		adv, err := network.NewAdversary(topo, entry, pats)
		if err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		net, err := network.New(topo, build, adv, opts)
		if err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		if err := net.Run(warmup); err != nil {
			fail(fmt.Errorf("%s warmup: %w", id, err))
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := net.Run(rounds); err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		net.Close()

		speed := float64(rounds) / elapsed / 1e6
		allocs := float64(after.Mallocs-before.Mallocs) / float64(rounds)
		if rep == 0 || speed > row.MroundsPerS {
			row.MroundsPerS = speed
		}
		if rep == 0 || allocs < row.AllocsPerRound {
			row.AllocsPerRound = allocs
		}
		tr := net.Tracker()
		row.QueueMax = tr.MaxQueue
		row.Energy = tr.MeanEnergy()
	}
	return row
}

// pktqRow measures the raw queue reps times (best run wins, like
// measure): a deterministic op mix of pushes, destination pops, global
// pops, and removals at a bounded depth. "Rounds" counts operations.
func pktqRow(ops int64, reps int) benchcmp.Row {
	best := pktqRun(ops)
	for rep := 1; rep < reps; rep++ {
		r := pktqRun(ops)
		if r.MroundsPerS > best.MroundsPerS {
			best.MroundsPerS = r.MroundsPerS
		}
		if r.AllocsPerRound < best.AllocsPerRound {
			best.AllocsPerRound = r.AllocsPerRound
		}
	}
	return best
}

func pktqRun(ops int64) benchcmp.Row {
	const nDests = 16
	q := pktq.New(nDests)
	state := uint64(0x6ea7c0de)
	mix := func() uint64 {
		state += 0x9e3779b97f4a7c15
		return mix64(state)
	}
	nextID := int64(0)
	maxDepth := 0

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := int64(0); i < ops; i++ {
		r := mix()
		switch {
		case q.Len() < 64 && r%3 != 0: // bias pushes at low depth
			q.Push(mac.Packet{ID: nextID, Dest: int(r % nDests)})
			nextID++
		case r%5 == 1:
			q.PopFrontTo(int(r % nDests))
		case r%5 == 2 && nextID > 0:
			q.Remove(int64(r>>1) % nextID)
		default:
			q.PopFront()
		}
		if q.Len() > maxDepth {
			maxDepth = q.Len()
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	return benchcmp.Row{
		ID:             "SUB.pktq",
		Label:          "packet queue op mix (ops, not rounds)",
		Rounds:         ops,
		MroundsPerS:    float64(ops) / elapsed / 1e6,
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / float64(ops),
		QueueMax:       int64(maxDepth),
	}
}
