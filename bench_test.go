package earmac

// Benchmarks regenerating the paper's evaluation. The paper's only
// exhibit is Table 1 — worst-case bounds for six algorithms and three
// impossibility results — so there is one benchmark per row (executing
// the corresponding experiment spec and reporting the measured figure
// next to the claimed bound), followed by ablation benchmarks for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// simulator substrate itself.
//
// Reported custom metrics:
//
//	queue_max     peak total queued packets (stability rows)
//	latency_max   worst packet delay in rounds (latency rows)
//	slope         queue growth in packets/round (impossibility rows)
//	bound         the paper's bound for the configuration
//	Mrounds/s     simulator throughput
//	energy        mean switched-on stations per round

import (
	"fmt"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/adjwin"
	"earmac/internal/algorithms/kclique"
	"earmac/internal/algorithms/kcycle"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/core"
	"earmac/internal/expt"
	"earmac/internal/metrics"
	"earmac/internal/ratio"
	"earmac/internal/registry"
)

func specByID(b *testing.B, id string) expt.Spec {
	b.Helper()
	for _, s := range expt.Table1(expt.Quick) {
		if s.ID == id {
			return s
		}
	}
	b.Fatalf("no spec %s", id)
	return expt.Spec{}
}

func benchSpec(b *testing.B, id string) {
	spec := specByID(b, id)
	var last expt.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := expt.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !o.OK {
			b.Fatalf("%s failed to reproduce: measured %v vs bound %v (stable=%v)",
				id, o.Measured, o.Bound, o.Stable)
		}
		last = o
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Spec.Rounds), "rounds")
	b.ReportMetric(last.MeanEnergy, "energy")
	if last.Bound > 0 {
		b.ReportMetric(last.Bound, "bound")
	}
	switch last.Kind {
	case expt.KindUnstable:
		b.ReportMetric(last.QueueSlope, "slope")
	case expt.KindLatency:
		b.ReportMetric(float64(last.MaxLatency), "latency_max")
	default:
		b.ReportMetric(float64(last.MaxQueue), "queue_max")
	}
}

// Table 1, row by row.

func BenchmarkTable1_01_Orchestra(b *testing.B)                  { benchSpec(b, "T1.1") }
func BenchmarkTable1_02a_Cap2ImpossibilityCountHop(b *testing.B) { benchSpec(b, "T1.2a") }
func BenchmarkTable1_02b_Cap2ImpossibilityAdjustWindow(b *testing.B) {
	benchSpec(b, "T1.2b")
}
func BenchmarkTable1_02c_Cap2ImpossibilityLemma1(b *testing.B) { benchSpec(b, "T1.2c") }
func BenchmarkTable1_03_CountHop(b *testing.B)                 { benchSpec(b, "T1.3") }
func BenchmarkTable1_04_AdjustWindow(b *testing.B)             { benchSpec(b, "T1.4") }
func BenchmarkTable1_05_KCycle(b *testing.B)                   { benchSpec(b, "T1.5") }
func BenchmarkTable1_06_ObliviousImpossibility(b *testing.B)   { benchSpec(b, "T1.6") }
func BenchmarkTable1_07_KClique(b *testing.B)                  { benchSpec(b, "T1.7") }
func BenchmarkTable1_08_KSubsets(b *testing.B)                 { benchSpec(b, "T1.8") }
func BenchmarkTable1_09_DirectObliviousImpossibility(b *testing.B) {
	benchSpec(b, "T1.9")
}

// runOnce is the ablation helper: one strict simulation, tracker out.
func runOnce(b *testing.B, sys *core.System, adv core.Adversary, rounds int64) *metrics.Tracker {
	b.Helper()
	tr := metrics.NewTracker()
	tr.SampleEvery = rounds / 512
	sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr})
	if err := sim.Run(rounds); err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkAblation_EnergyLatencyTradeoff measures the latency-versus-
// energy-cap curve (the paper's open problem, §7) on k-Cycle at half the
// critical rate for each cap.
func BenchmarkAblation_EnergyLatencyTradeoff(b *testing.B) {
	const n = 13
	for k := 2; k <= 6; k++ {
		k := k
		b.Run(byK("kcycle", k), func(b *testing.B) {
			var lastLat int64
			var lastEnergy float64
			for i := 0; i < b.N; i++ {
				sys, err := kcycle.New(n, k)
				if err != nil {
					b.Fatal(err)
				}
				typ := adversary.Type{Rho: ratio.New(int64(k-1), int64(2*(n-1))), Beta: ratio.FromInt(2)}
				tr := runOnce(b, sys, adversary.New(typ, adversary.Uniform(n, int64(k))), 100000)
				if !tr.LooksStable() {
					b.Fatalf("k=%d unstable below critical rate", k)
				}
				lastLat = tr.MaxLatency
				lastEnergy = tr.MeanEnergy()
			}
			b.ReportMetric(float64(lastLat), "latency_max")
			b.ReportMetric(lastEnergy, "energy")
		})
	}
	const nc = 12
	for _, k := range []int{2, 4, 6, 8} {
		k := k
		b.Run(byK("kclique", k), func(b *testing.B) {
			var lastLat int64
			var lastEnergy float64
			for i := 0; i < b.N; i++ {
				sys, err := kclique.New(nc, k)
				if err != nil {
					b.Fatal(err)
				}
				typ := adversary.Type{
					Rho:  ratio.New(int64(k*k), int64(2*2*nc*(2*nc-k))),
					Beta: ratio.FromInt(2),
				}
				tr := runOnce(b, sys, adversary.New(typ, adversary.Uniform(nc, int64(k))), 150000)
				if !tr.LooksStable() {
					b.Fatalf("k=%d unstable below critical rate", k)
				}
				lastLat = tr.MaxLatency
				lastEnergy = tr.MeanEnergy()
			}
			b.ReportMetric(float64(lastLat), "latency_max")
			b.ReportMetric(lastEnergy, "energy")
		})
	}
}

func byK(alg string, k int) string { return fmt.Sprintf("%s/k=%d", alg, k) }

// BenchmarkAblation_KSubsetsMBTFvsRRW compares the thread substrate of
// k-Subsets: MBTF (maximum throughput, possible starvation) against RRW
// (the paper's bounded-latency modification) at a rate below critical.
func BenchmarkAblation_KSubsetsMBTFvsRRW(b *testing.B) {
	const n, k = 6, 3
	builders := map[string]func(int, int) (*core.System, error){
		"mbtf": ksubsets.New,
		"rrw":  ksubsets.NewRRW,
	}
	for name, build := range builders {
		build := build
		b.Run(name, func(b *testing.B) {
			var lastLat, lastQ int64
			for i := 0; i < b.N; i++ {
				sys, err := build(n, k)
				if err != nil {
					b.Fatal(err)
				}
				adv := adversary.New(adversary.T(1, 6, 2), adversary.Uniform(n, 3))
				tr := runOnce(b, sys, adv, 150000)
				if !tr.LooksStable() {
					b.Fatal("unstable below critical rate")
				}
				lastLat = tr.MaxLatency
				lastQ = tr.MaxQueue
			}
			b.ReportMetric(float64(lastLat), "latency_max")
			b.ReportMetric(float64(lastQ), "queue_max")
		})
	}
}

// BenchmarkAblation_WindowDoubling compares Adjust-Window started at the
// paper's initial window against a cold start from a tiny window that
// must double its way up.
func BenchmarkAblation_WindowDoubling(b *testing.B) {
	const n = 3
	configs := map[string]func() (*core.System, error){
		"warm": func() (*core.System, error) { return adjwin.New(n) },
		"cold": func() (*core.System, error) { return adjwin.NewWithWindow(n, 4096) },
	}
	for name, build := range configs {
		build := build
		b.Run(name, func(b *testing.B) {
			var lastLat int64
			var lastWin int64
			for i := 0; i < b.N; i++ {
				sys, err := build()
				if err != nil {
					b.Fatal(err)
				}
				adv := adversary.New(adversary.T(1, 2, 2), adversary.Uniform(n, 9))
				tr := runOnce(b, sys, adv, 400000)
				if !tr.LooksStable() {
					b.Fatal("unstable at ρ=1/2")
				}
				lastLat = tr.MaxLatency
				lastWin = adjwin.CurrentWindow(sys.Stations[0])
			}
			b.ReportMetric(float64(lastLat), "latency_max")
			b.ReportMetric(float64(lastWin), "final_window")
		})
	}
}

// BenchmarkSubstrate benchmarks the prior-work broadcast substrates at
// the rates their papers claim: MBTF at ρ=1 [17], RRW and OF-RRW at
// ρ=3/4 < 1 [18, 3].
func BenchmarkSubstrate(b *testing.B) {
	const n = 8
	cases := []struct {
		name string
		alg  string
		rhoN int64
		rhoD int64
	}{
		{"mbtf@rho=1", "mbtf", 1, 1},
		{"rrw@rho=3/4", "rrw", 3, 4},
		{"ofrrw@rho=3/4", "ofrrw", 3, 4},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var lastQ int64
			for i := 0; i < b.N; i++ {
				sys, err := registry.Build(c.alg, n, 0)
				if err != nil {
					b.Fatal(err)
				}
				typ := adversary.Type{Rho: ratio.New(c.rhoN, c.rhoD), Beta: ratio.FromInt(2)}
				tr := runOnce(b, sys, adversary.New(typ, adversary.Uniform(n, 11)), 60000)
				if !tr.LooksStable() {
					b.Fatalf("%s unstable at its claimed rate", c.name)
				}
				lastQ = tr.MaxQueue
			}
			b.ReportMetric(float64(lastQ), "queue_max")
		})
	}
}

// BenchmarkAblation_DeterminismVsALOHA pits the deterministic direct
// oblivious algorithms against the randomized slotted-ALOHA baseline on
// the identical targeted flow at ρ = 1/10 (n=8, k=4): the deterministic
// schedules absorb it collision-free; ALOHA's queue grows. This is the
// measured argument for the paper's determinism.
func BenchmarkAblation_DeterminismVsALOHA(b *testing.B) {
	const n, k = 8, 4
	algs := []string{"k-subsets", "k-clique", "aloha"}
	for _, alg := range algs {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var last *metrics.Tracker
			for i := 0; i < b.N; i++ {
				sys, err := registry.Build(alg, n, k)
				if err != nil {
					b.Fatal(err)
				}
				adv := adversary.New(adversary.T(1, 10, 2), adversary.SingleTarget(0, 7))
				last = runOnce(b, sys, adv, 120000)
				stable := last.LooksStable()
				if alg == "aloha" && stable {
					b.Fatal("ALOHA unexpectedly stable")
				}
				if alg != "aloha" && !stable {
					b.Fatalf("%s unexpectedly unstable", alg)
				}
			}
			b.ReportMetric(float64(last.CollisionRounds), "collisions")
			b.ReportMetric(last.QueueSlope(), "slope")
			b.ReportMetric(float64(last.MaxQueue), "queue_max")
		})
	}
}

// BenchmarkCrossover sweeps the injection rate across each proven
// threshold and reports the queue growth slope per rate — locating the
// stability crossovers Table 1 predicts (and, for k-Cycle under
// concentration, the sharper 1/ℓ crossover EXPERIMENTS.md documents).
func BenchmarkCrossover(b *testing.B) {
	type point struct {
		name     string
		num, den int64
	}
	sweep := func(b *testing.B, points []point, build func() (*core.System, error),
		pattern func(sys *core.System, num, den int64) core.Adversary, rounds int64) {
		for _, pt := range points {
			pt := pt
			b.Run(pt.name, func(b *testing.B) {
				var last *metrics.Tracker
				for i := 0; i < b.N; i++ {
					sys, err := build()
					if err != nil {
						b.Fatal(err)
					}
					last = runOnce(b, sys, pattern(sys, pt.num, pt.den), rounds)
				}
				b.ReportMetric(last.QueueSlope(), "slope")
				b.ReportMetric(float64(last.MaxQueue), "queue_max")
				stable := 0.0
				if last.LooksStable() {
					stable = 1
				}
				b.ReportMetric(stable, "stable")
			})
		}
	}

	// Throughput-1 frontier: Count-Hop (cap 2) degrades as ρ → 1 and
	// collapses at 1; Orchestra (cap 3) holds at 1.
	b.Run("cap2-vs-rate", func(b *testing.B) {
		sweep(b, []point{
			{"rho=3/4", 3, 4}, {"rho=9/10", 9, 10}, {"rho=1", 1, 1},
		}, func() (*core.System, error) { return registry.Build("count-hop", 5, 0) },
			func(sys *core.System, num, den int64) core.Adversary {
				return adversary.New(adversary.T(num, den, 1), adversary.Uniform(5, 3))
			}, 120000)
	})

	// k-Subsets around its critical rate 1/5 (n=6, k=3) under the
	// Theorem 9 pair flood: stable at and below, unstable above.
	b.Run("ksubsets-pair-flood", func(b *testing.B) {
		sweep(b, []point{
			{"rho=1/6", 1, 6}, {"rho=1/5", 1, 5}, {"rho=9/40", 9, 40}, {"rho=1/4", 1, 4},
		}, func() (*core.System, error) { return registry.Build("k-subsets", 6, 3) },
			func(sys *core.System, num, den int64) core.Adversary {
				return adversary.LeastPair(sys.Schedule, adversary.T(num, den, 1))
			}, 150000)
	})

	// k-Cycle under single-station concentration: the measured crossover
	// sits at the activity fraction 1/ℓ = 1/4, below the claimed 1/3.
	b.Run("kcycle-concentration", func(b *testing.B) {
		sweep(b, []point{
			{"rho=1/5", 1, 5}, {"rho=23/100", 23, 100}, {"rho=1/4", 1, 4}, {"rho=3/10", 3, 10},
		}, func() (*core.System, error) { return registry.Build("k-cycle", 7, 3) },
			func(sys *core.System, num, den int64) core.Adversary {
				return adversary.New(adversary.T(num, den, 2), adversary.SingleTarget(3, 6))
			}, 300000)
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed: rounds per
// second driving Orchestra at full load on 16 stations.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const n, rounds = 16, 50000
	for i := 0; i < b.N; i++ {
		sys, err := registry.Build("orchestra", n, 0)
		if err != nil {
			b.Fatal(err)
		}
		adv := adversary.New(adversary.T(1, 1, 2), adversary.Uniform(n, 5))
		tr := metrics.NewTracker()
		sim := core.NewSim(sys, adv, core.Options{Tracker: tr})
		if err := sim.Run(rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrounds/s")
}
