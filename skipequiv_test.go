package earmac

// Property tests for the quiescence fast-forward engine (DESIGN.md
// §16): skipping must be invisible. A run with the engine enabled and
// the same run with Config.NoSkip set must produce bit-identical
// reports and bit-identical recorded traces, across algorithms,
// stochastic and phased patterns, duty-cycle knobs, and seeds. The
// zero-alloc tests extend the fast-path perf floor to both engine
// tiers (the O(1) quiescent tick and the closed-form span skip).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/scenario"
)

// skipEquivAlgs crosses every registered routing algorithm the
// equivalence property runs over, including one ("adjust-window")
// without a Skipper implementation — its runs exercise the
// skip-incapable resolution where NoSkip is trivially identical.
var skipEquivAlgs = []string{
	"orchestra", "count-hop", "k-cycle", "k-clique",
	"k-subsets", "k-subsets-rrw", "aloha", "adjust-window",
}

// skipEquivConfig derives one deterministic fast-path config from the
// property inputs. Lenient + DisableChecks select the fast path, the
// only path the engine runs on; low ρ keeps long idle stretches in
// every workload so both engine tiers actually engage.
func skipEquivConfig(seed int64, algIdx, patIdx, disIdx uint8) Config {
	cfg := Config{
		Algorithm: skipEquivAlgs[int(algIdx)%len(skipEquivAlgs)],
		N:         6,
		K:         3,
		RhoNum:    1, RhoDen: 64,
		Beta:          2,
		Seed:          1 + (seed & 0xffff),
		Rounds:        16384,
		Lenient:       true,
		DisableChecks: true,
	}
	switch patIdx % 4 {
	case 0:
		cfg.Pattern = "uniform"
	case 1:
		cfg.Pattern = "bursty"
	case 2:
		cfg.Pattern = "diurnal"
	case 3:
		cfg.Phases = []Phase{
			{Pattern: "quiet", Rounds: 2048},
			{Pattern: "bernoulli", Rounds: 4096},
			{Pattern: "poisson-batch"},
		}
	}
	// Disruption and duty-cycling need a Tolerant algorithm — only
	// aloha qualifies; the knobs cover a duty-cycled wrap (lazy skipped
	// sleep accounting), a live jammer (spans end at its next jam, and
	// it refills its bucket for the skipped rounds), and an outage
	// window cutting through the idle stretches.
	if cfg.Algorithm == "aloha" {
		switch disIdx % 4 {
		case 1:
			cfg.SleepAfterIdle = 32
			cfg.WakeEvery = 16
		case 2:
			cfg.JamRhoNum, cfg.JamRhoDen = 1, 128
		case 3:
			cfg.Outages = []Outage{{Channel: 0, From: 4000, Rounds: 500}}
		}
	}
	return cfg
}

// TestSkipNoSkipEquivalenceQuick is the bit-identity property: for
// random (seed, algorithm, pattern, disruption) draws, the engine-on
// and NoSkip runs must agree on the full Report, and — when recording —
// on every trace byte.
func TestSkipNoSkipEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	prop := func(seed int64, algIdx, patIdx, disIdx uint8) bool {
		cfg := skipEquivConfig(seed, algIdx, patIdx, disIdx)
		on, err := Run(cfg)
		if err != nil {
			t.Logf("config %+v: skip-on run failed: %v", cfg, err)
			return false
		}
		off := cfg
		off.NoSkip = true
		offRep, err := Run(off)
		if err != nil {
			t.Logf("config %+v: NoSkip run failed: %v", cfg, err)
			return false
		}
		if !reflect.DeepEqual(on, offRep) {
			t.Logf("config %+v:\nskip-on: %+v\nnoskip:  %+v", cfg, on, offRep)
			return false
		}
		// Recorded trace bytes. A recording of a duty-cycled run steps
		// under NoSkip on both sides (its sleep recorder reads station
		// state after every round), so for the duty case this pair runs
		// the per-round loop twice and the report comparison above is
		// what covers the engine.
		var recOn, recOff bytes.Buffer
		onRec, offRec := cfg, off
		onRec.RecordTo, offRec.RecordTo = &recOn, &recOff
		if _, err := Run(onRec); err != nil {
			t.Logf("config %+v: recording skip-on run failed: %v", cfg, err)
			return false
		}
		if _, err := Run(offRec); err != nil {
			t.Logf("config %+v: recording NoSkip run failed: %v", cfg, err)
			return false
		}
		if !bytes.Equal(recOn.Bytes(), recOff.Bytes()) {
			t.Logf("config %+v: recorded traces differ:\nskip-on: %q\nnoskip:  %q",
				cfg, recOn.Bytes(), recOff.Bytes())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// equivDisruptions are the disruption and duty-cycling knobs
// TestSkipNoSkipEquivalenceTable crosses aloha with; channels is the
// network's channel count (1 on a single channel). The duty rows cover
// the wake rounds a quiescent system ticks (accepted idle breaks): every
// round a wake, jammed and outaged wakes, and a budget, under which
// wakes are swept.
var equivDisruptions = []struct {
	name  string
	apply func(cfg *Config, channels int)
}{
	{"none", func(*Config, int) {}},
	{"jam8", func(cfg *Config, _ int) { cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta = 1, 8, 1 }},
	{"duty32-16", func(cfg *Config, _ int) { cfg.SleepAfterIdle, cfg.WakeEvery = 32, 16 }},
	{"outages", func(cfg *Config, channels int) { cfg.Outages = equivOutages(channels) }},
	{"jam4b2-duty8-64", func(cfg *Config, _ int) {
		cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta = 1, 4, 2
		cfg.SleepAfterIdle, cfg.WakeEvery = 8, 64
	}},
	{"duty8-16-budget200", func(cfg *Config, _ int) {
		cfg.SleepAfterIdle, cfg.WakeEvery, cfg.EnergyBudget = 8, 16, 200
	}},
	{"duty4-1", func(cfg *Config, _ int) { cfg.SleepAfterIdle, cfg.WakeEvery = 4, 1 }},
	{"jam4-duty8-7", func(cfg *Config, _ int) {
		cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta = 1, 4, 1
		cfg.SleepAfterIdle, cfg.WakeEvery = 8, 7
	}},
	{"duty8-16-outages", func(cfg *Config, channels int) {
		cfg.SleepAfterIdle, cfg.WakeEvery = 8, 16
		cfg.Outages = equivOutages(channels)
	}},
}

// equivOutages are two outage windows, on the first and the last
// channel, each crossing many duty wake rounds.
func equivOutages(channels int) []Outage {
	return []Outage{{Channel: 0, From: 3000, Rounds: 400}, {Channel: channels - 1, From: 17000, Rounds: 900}}
}

// TestSkipNoSkipEquivalenceTable is the deterministic counterpart of the
// quick property, over the runs where the network's lazy channels and
// spans, the live jammer's horizon and feedback-free jammed ticks
// engage: lenient networks of four topologies crossing aloha under
// every disruption knob, orchestra and count-hop, at one and two
// workers, plus single-channel aloha under every knob; and the runs
// where the sparse sweep does the work: busy n = 24 aloha, alone,
// duty-cycled and on a line of four channels. Each must match
// its NoSkip twin on the Report JSON and the recorded trace bytes,
// except that a duty-cycled run, whose recording steps under NoSkip on
// both sides, is recorded once and must match the unrecorded skip-on
// report. The horizon exceeds ctxCheckEvery, so every run settles
// mid-way at a chunk boundary.
func TestSkipNoSkipEquivalenceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	const rounds = ctxCheckEvery + 3616
	type equivCase struct {
		name string
		cfg  Config
	}
	var cases []equivCase
	for _, d := range equivDisruptions {
		cfg := Config{
			Algorithm: "aloha", N: 6, K: 3,
			RhoNum: 1, RhoDen: 64, Beta: 2,
			Pattern: "uniform", Seed: 5, Rounds: rounds,
			Lenient: true, DisableChecks: true,
		}
		d.apply(&cfg, 1)
		cases = append(cases, equivCase{"single-aloha-" + d.name, cfg})
	}
	// n = 24 aloha at ρ = 1/16 is busy: stations hold packets through
	// the rounds they are scheduled off, which the sparse sweep skips
	// and catches up on, with and without duty-cycling, and on a
	// network.
	busy := Config{
		Algorithm: "aloha", N: 24, K: 3,
		RhoNum: 1, RhoDen: 16, Beta: 2,
		Pattern: "uniform", Seed: 9, Rounds: rounds,
		Lenient: true, DisableChecks: true,
	}
	busyDuty := busy
	busyDuty.SleepAfterIdle, busyDuty.WakeEvery = 8, 64
	busyNet := busy
	busyNet.Topology, busyNet.Channels, busyNet.Beta = "line", 4, 4
	cases = append(cases,
		equivCase{"single-aloha-n24-busy", busy},
		equivCase{"single-aloha-n24-busy-duty8-64", busyDuty},
		equivCase{"line-aloha-n24-busy", busyNet})
	const channels = 4
	for i, topo := range []string{"line", "star", "grid", "random"} {
		net := Config{
			N: 5, K: 3, Topology: topo, Channels: channels,
			RhoNum: 1, RhoDen: 64 << (i % 3), Beta: channels,
			Pattern: "uniform", Seed: int64(21 + i), Rounds: rounds,
			Lenient: true, DisableChecks: true,
		}
		var algs []equivCase
		for _, d := range equivDisruptions {
			cfg := net
			cfg.Algorithm = "aloha"
			d.apply(&cfg, channels)
			algs = append(algs, equivCase{"aloha-" + d.name, cfg})
		}
		for _, alg := range []string{"orchestra", "count-hop"} {
			cfg := net
			cfg.Algorithm = alg
			algs = append(algs, equivCase{alg, cfg})
		}
		for _, workers := range []int{1, 2} {
			for _, c := range algs {
				c.cfg.NetWorkers = workers
				cases = append(cases, equivCase{fmt.Sprintf("%s-%s-w%d", topo, c.name, workers), c.cfg})
			}
		}
	}
	run := func(t *testing.T, cfg Config) (report, trace []byte) {
		t.Helper()
		var buf bytes.Buffer
		cfg.RecordTo = &buf
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js, buf.Bytes()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			on, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			off := c.cfg
			off.NoSkip = true
			offRep, err := Run(off)
			if err != nil {
				t.Fatal(err)
			}
			onJS, _ := json.Marshal(on)
			offJS, _ := json.Marshal(offRep)
			if !bytes.Equal(onJS, offJS) {
				t.Fatalf("report differs from NoSkip:\nskip-on: %s\nnoskip:  %s", onJS, offJS)
			}
			recJS, onTrace := run(t, c.cfg)
			if c.cfg.dutyParams().Enabled() {
				if !bytes.Equal(recJS, onJS) {
					t.Fatalf("recorded report differs from the unrecorded one:\nrecorded: %s\nskip-on:  %s", recJS, onJS)
				}
				return
			}
			offJS, offTrace := run(t, off)
			if !bytes.Equal(recJS, offJS) {
				t.Fatalf("recorded report differs from NoSkip:\nskip-on: %s\nnoskip:  %s", recJS, offJS)
			}
			if !bytes.Equal(onTrace, offTrace) {
				t.Fatalf("recorded trace differs from NoSkip (%d bytes vs %d)", len(onTrace), len(offTrace))
			}
		})
	}
}

// steadySkipAllocsPerRound mirrors steadyAllocsPerRound but requires
// the quiescence engine to be enabled and to have actually engaged
// (the sim is quiescent when the measurement ends).
func steadySkipAllocsPerRound(t *testing.T, sys *core.System, adv core.Adversary, warmup, measure int64) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocs-per-round is meaningless under the race detector")
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = 0
	sim := core.NewSim(sys, adv, core.Options{Tracker: tr})
	if !sim.FastPath() {
		t.Fatal("fast path not selected")
	}
	if !sim.SkipCapable() {
		t.Fatal("quiescence engine not enabled for this system")
	}
	if err := sim.Run(warmup); err != nil {
		t.Fatal(err)
	}
	// Probe that quiescence actually engages in steady state: step
	// single rounds until the sim reports itself quiescent (the run is
	// seeded, so this is deterministic, and Run settles at every exit
	// without leaving quiescence).
	engaged := false
	for i := 0; i < 4096 && !engaged; i++ {
		if err := sim.Run(1); err != nil {
			t.Fatal(err)
		}
		engaged = sim.Quiescent()
	}
	if !engaged {
		t.Fatal("sim never reached quiescence; the engine was not exercised")
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
	return best / float64(measure)
}

// TestFastPathZeroAllocsQuiescentTick pins tier 1 of the engine to the
// perf floor: a Bernoulli workload whose bucket almost always holds
// credit gives a span horizon of the current round — no span is ever
// provable — so idle stretches advance through O(1) quiescent ticks,
// which must not allocate.
func TestFastPathZeroAllocsQuiescentTick(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := orchestra.New(6)
	if err != nil {
		t.Fatal(err)
	}
	// β = 8 keeps the bucket near its cap: credit is almost always
	// affordable, and Bernoulli exposes no draw horizon, so NextDraw
	// pins every span at its first round. ρ = 1/32 leaves orchestra's
	// conductor enough slack to fully drain its schedule between
	// injections — Quiescent demands an empty schedule.
	adv := adversary.New(adversary.T(1, 32, 8), scenario.Bernoulli(6, 11, 1, 32))
	perRound := steadySkipAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("quiescent-tick steady state allocates %.4f allocs/round, want 0", perRound)
	}
}

// TestFastPathZeroAllocsSpanSkip pins tier 2: at ρ = 1/64 the entry
// bucket starves for ~64 rounds after each spend, the closed-form
// horizon covers the starved stretch, and the engine must skip those
// spans without touching the allocator.
func TestFastPathZeroAllocsSpanSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is long")
	}
	sys, err := ksubsets.New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(adversary.T(1, 64, 1), adversary.Uniform(6, 42))
	perRound := steadySkipAllocsPerRound(t, sys, adv, 60000, 30000)
	if perRound != 0 {
		t.Errorf("span-skip steady state allocates %.4f allocs/round, want 0", perRound)
	}
}
