package expt

import (
	"fmt"
	"io"
	"text/tabwriter"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/adjwin"
	"earmac/internal/algorithms/counthop"
	"earmac/internal/algorithms/kclique"
	"earmac/internal/algorithms/kcycle"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/core"
	"earmac/internal/ratio"
)

// Scale selects the horizon of the Table 1 experiments.
type Scale int

const (
	// Quick runs each row in roughly a second — used by the benchmarks.
	Quick Scale = iota
	// Full runs several-fold longer horizons — used by cmd/earmac-table.
	Full
)

func (sc Scale) mult(rounds int64) int64 {
	if sc == Full {
		return 4 * rounds
	}
	return rounds
}

// Table1 returns one spec per row of the paper's Table 1. Configurations
// are laptop-scale; DESIGN.md §5 maps each ID to the paper's row.
func Table1(sc Scale) []Spec {
	return []Spec{
		{
			ID: "T1.1", Label: "Orchestra @ ρ=1 (cap 3)",
			N: 6, Rho: ratio.One(), Beta: 2,
			Rounds: sc.mult(120000),
			Kind:   KindQueueBound, Bound: OrchestraQueueBound(6, 2),
			PaperClaim: "queues ≤ 2n³+β at ρ=1",
			Build:      func() (*core.System, error) { return orchestra.New(6) },
			Seed:       101,
		},
		{
			ID: "T1.2a", Label: "Count-Hop @ ρ=1 (cap-2 impossibility)",
			N: 5, Rho: ratio.One(), Beta: 1,
			Rounds:     sc.mult(80000),
			Kind:       KindUnstable,
			PaperClaim: "no cap-2 algorithm is stable at ρ=1 (Thm 2)",
			Build:      func() (*core.System, error) { return counthop.New(5) },
			Seed:       102,
		},
		{
			ID: "T1.2b", Label: "Adjust-Window @ ρ=1 (cap-2 impossibility)",
			N: 2, Rho: ratio.One(), Beta: 1,
			Rounds:     sc.mult(300000),
			Kind:       KindUnstable,
			PaperClaim: "no cap-2 algorithm is stable at ρ=1 (Thm 2)",
			Build:      func() (*core.System, error) { return adjwin.New(2) },
			Seed:       103,
		},
		{
			ID: "T1.2c", Label: "Lemma-1 adversary vs Count-Hop @ ρ=1",
			N: 5, Rho: ratio.One(), Beta: 1,
			Rounds:     sc.mult(80000),
			Kind:       KindUnstable,
			PaperClaim: "the Case I/II construction of Lemma 1",
			Build:      func() (*core.System, error) { return counthop.New(5) },
			Adv: func(sys *core.System) core.Adversary {
				return adversary.NewLemma1(sys.N(), int64(4*sys.N()))
			},
			Seed: 104,
		},
		{
			ID: "T1.3", Label: "Count-Hop @ ρ=1/2 (universal, cap 2)",
			N: 6, Rho: ratio.New(1, 2), Beta: 2,
			Rounds: sc.mult(60000),
			Kind:   KindLatency, Bound: CountHopLatencyBound(6, 2, ratio.New(1, 2)),
			// Our stage-length dissemination doubles the per-phase control
			// overhead relative to the paper's accounting (DESIGN.md §4).
			Slack:      2.5,
			PaperClaim: "latency ≤ 2(n²+β)/(1−ρ)",
			Build:      func() (*core.System, error) { return counthop.New(6) },
			Seed:       105,
		},
		{
			ID: "T1.4", Label: "Adjust-Window @ ρ=1/2 (plain packets, cap 2)",
			N: 4, Rho: ratio.New(1, 2), Beta: 2,
			Rounds: sc.mult(6 * adjwin.InitialWindow(4)),
			Kind:   KindLatency, Bound: AdjustWindowLatencyBound(4, 2, ratio.New(1, 2)),
			// The paper's constant is asymptotic: lg L ≫ lg²n at small n
			// (DESIGN.md §4 discusses the gap).
			Slack:      4,
			PaperClaim: "latency ≤ (18n³lg²n+2β)/(1−ρ)",
			Build:      func() (*core.System, error) { return adjwin.New(4) },
			Seed:       106,
		},
		{
			ID: "T1.5", Label: "3-Cycle on n=7 @ ρ=1/4 < (k−1)/(n−1)",
			N: 7, K: 3, Rho: ratio.New(1, 4), Beta: 2,
			Rounds: sc.mult(80000),
			Kind:   KindLatency, Bound: KCycleLatencyBound(7, 2),
			PaperClaim: "latency ≤ (32+β)n for ρ < (k−1)/(n−1)",
			Build:      func() (*core.System, error) { return kcycle.New(7, 3) },
			Seed:       107,
		},
		{
			ID: "T1.6", Label: "LeastOn adversary vs 3-Cycle @ ρ=1/2 > k/n",
			N: 7, K: 3, Rho: ratio.New(1, 2), Beta: 1,
			Rounds:     sc.mult(100000),
			Kind:       KindUnstable,
			PaperClaim: "no k-oblivious algorithm stable for ρ > k/n (Thm 6)",
			Build:      func() (*core.System, error) { return kcycle.New(7, 3) },
			Adv: func(sys *core.System) core.Adversary {
				return adversary.LeastOn(sys.Schedule, adversary.T(1, 2, 1))
			},
			Seed: 108,
		},
		{
			ID: "T1.7", Label: "4-Clique on n=8 @ ρ=1/12 = k²/(2n(2n−k))",
			N: 8, K: 4, Rho: ratio.New(1, 12), Beta: 2,
			Rounds: sc.mult(100000),
			Kind:   KindLatency, Bound: KCliqueLatencyBound(8, 4, 2),
			PaperClaim: "latency ≤ 8(n²/k)(1+β/2k) for ρ ≤ k²/(2n(2n−k))",
			Build:      func() (*core.System, error) { return kclique.New(8, 4) },
			Seed:       109,
		},
		{
			ID: "T1.8", Label: "3-Subsets on n=6 @ ρ=1/5 = k(k−1)/(n(n−1))",
			N: 6, K: 3, Rho: ratio.New(1, 5), Beta: 2,
			Rounds: sc.mult(150000),
			Kind:   KindQueueBound, Bound: KSubsetsQueueBound(6, 3, 2),
			PaperClaim: "stable at ρ = k(k−1)/(n(n−1)), queues ≤ 2C(n,k)(n²+β)",
			Build:      func() (*core.System, error) { return ksubsets.New(6, 3) },
			Seed:       110,
		},
		{
			ID: "T1.9", Label: "LeastPair adversary vs 3-Subsets @ ρ=1/4 > 1/5",
			N: 6, K: 3, Rho: ratio.New(1, 4), Beta: 1,
			Rounds:     sc.mult(120000),
			Kind:       KindUnstable,
			PaperClaim: "no k-oblivious direct algorithm stable for ρ > k(k−1)/(n(n−1)) (Thm 9)",
			Build:      func() (*core.System, error) { return ksubsets.New(6, 3) },
			Adv: func(sys *core.System) core.Adversary {
				return adversary.LeastPair(sys.Schedule, adversary.T(1, 4, 1))
			},
			Seed: 111,
		},
	}
}

const tableHeader = "ID\tEXPERIMENT\tn\tk\tρ\tβ\tPAPER\tBOUND\tMEASURED\tSTABLE\tVERDICT"

// Render writes already-computed outcomes (typically from RunConcurrent)
// as the Table 1 digest.
func Render(outs []Outcome, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, tableHeader)
	for _, o := range outs {
		fmt.Fprintln(tw, renderRow(o))
	}
	return tw.Flush()
}

func renderRow(o Outcome) string {
	k := "-"
	if o.K > 0 {
		k = fmt.Sprintf("%d", o.K)
	}
	bound := "-"
	if o.Bound > 0 {
		bound = fmt.Sprintf("%.0f", o.Bound)
	}
	var measured string
	switch o.Kind {
	case KindUnstable:
		measured = fmt.Sprintf("slope %.4f pkt/rd", o.Measured)
	case KindLatency:
		measured = fmt.Sprintf("max lat %d", o.MaxLatency)
	default:
		measured = fmt.Sprintf("max queue %d", o.MaxQueue)
	}
	verdict := "REPRODUCED"
	if !o.OK {
		verdict = "MISMATCH"
	}
	return fmt.Sprintf("%s\t%s\t%d\t%s\t%v\t%d\t%s\t%s\t%s\t%v\t%s",
		o.ID, o.Label, o.Spec.N, k, o.Rho, o.Beta, o.PaperClaim, bound, measured, o.Stable, verdict)
}
