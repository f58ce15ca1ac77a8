// Package expt defines the reproduction experiments: one runnable
// specification per row of the paper's Table 1 (its entire evaluation).
//
// A Spec pins a system, an adversary, and a horizon; Run executes it
// strictly (with conservation checking) and produces an Outcome: the
// Spec, the measurement Report in the shared schema, and a verdict of
// whether the measurement reproduces the paper's claimed bound.
package expt

import (
	"fmt"
	"math"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/ratio"
	"earmac/internal/report"
)

// Kind states what a spec is checking.
type Kind int

const (
	// KindStable: the algorithm must keep queues bounded.
	KindStable Kind = iota
	// KindQueueBound: bounded queues that also stay under Bound.
	KindQueueBound
	// KindLatency: bounded queues with max latency under Bound×Slack.
	KindLatency
	// KindUnstable: the adversary must force unbounded queue growth.
	KindUnstable
)

func (k Kind) String() string {
	switch k {
	case KindStable:
		return "stable"
	case KindQueueBound:
		return "queue-bound"
	case KindLatency:
		return "latency"
	case KindUnstable:
		return "unstable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText encodes the kind as its String form.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Spec is one experiment. Its JSON form is the identity and claim half
// of an earmac-table -json row.
type Spec struct {
	ID    string `json:"id"`    // Table 1 row, e.g. "T1.5"
	Label string `json:"label"` // algorithm and setting
	N     int    `json:"n"`
	K     int    `json:"k,omitempty"` // energy cap parameter (0 when fixed by the algorithm)

	Rho  ratio.Rat `json:"rho"`
	Beta int64     `json:"beta"`

	Rounds int64 `json:"rounds"`
	Seed   int64 `json:"seed"`

	Kind       Kind    `json:"kind"`
	PaperClaim string  `json:"paper_claim"`     // the formula as stated in Table 1
	Bound      float64 `json:"bound,omitempty"` // the paper's bound for this configuration (0 if n/a)
	Slack      float64 `json:"slack,omitempty"` // multiplicative tolerance on Bound (1 = exact)

	Build func() (*core.System, error) `json:"-"`
	// Adv builds the adversary; nil means a full-rate Uniform pattern of
	// type (Rho, Beta) (see Instantiate).
	Adv func(sys *core.System) core.Adversary `json:"-"`
}

// Outcome is one reproduced Table 1 row: the Spec, the verdict, and the
// full measurement record in the shared Report schema (internal/report)
// that the façade and the Suite runner also emit. Its JSON form is an
// earmac-table -json row. Spec and Report both declare N and Rounds, so
// those two are reached as o.Spec.N or o.Report.Rounds.
type Outcome struct {
	Spec

	// Measured is the headline number compared against Bound (max queue
	// for queue bounds, max latency for latency bounds, the queue growth
	// slope for instability rows).
	Measured float64 `json:"measured"`
	// OK reports whether the measurement reproduces the paper's claim.
	OK bool `json:"ok"`

	report.Report `json:"report"`
}

// Instantiate builds the spec's system and its adversary: Adv's, or by
// default a full-rate Uniform pattern of type (Rho, Beta) seeded with
// Seed+1. Run and earmac-bench build rows here, so a row's seed mapping
// lives in one place.
func (s Spec) Instantiate() (*core.System, core.Adversary, error) {
	sys, err := s.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.ID, err)
	}
	if s.Adv != nil {
		return sys, s.Adv(sys), nil
	}
	return sys, adversary.New(adversary.Type{Rho: s.Rho, Beta: ratio.FromInt(s.Beta)},
		adversary.Uniform(sys.N(), s.Seed+1)), nil
}

// Run executes the spec strictly with conservation checking.
func Run(s Spec) (Outcome, error) {
	sys, adv, err := s.Instantiate()
	if err != nil {
		return Outcome{}, err
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = max(s.Rounds/512, 1)
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: core.ConservationCheckEvery, Tracker: tr})
	if err := sim.Run(s.Rounds); err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", s.ID, err)
	}

	o := Outcome{Spec: s, Report: report.FromTracker(sys.Info, sys.N(), tr)}
	slack := s.Slack
	if slack == 0 {
		slack = 1
	}
	clean := o.Stable && len(o.Violations) == 0
	switch s.Kind {
	case KindStable:
		o.Measured = float64(o.MaxQueue)
		o.OK = clean
	case KindQueueBound:
		o.Measured = float64(o.MaxQueue)
		o.OK = clean && o.Measured <= s.Bound*slack
	case KindLatency:
		o.Measured = float64(o.MaxLatency)
		o.OK = clean && o.Measured <= s.Bound*slack
	case KindUnstable:
		o.Measured = o.QueueSlope
		o.OK = !o.Stable && o.QueueSlope > 0 && len(o.Violations) == 0
	}
	return o, nil
}

// lgCeil is ⌈log₂(x+1)⌉ as used in the paper's bounds.
func lgCeil(x float64) float64 {
	return math.Ceil(math.Log2(x + 1))
}

// Paper bounds per Table 1, as functions of the configuration.

// OrchestraQueueBound is Theorem 1: 2n³ + β.
func OrchestraQueueBound(n int, beta int64) float64 {
	return 2*math.Pow(float64(n), 3) + float64(beta)
}

// CountHopLatencyBound is Theorem 3: 2(n²+β)/(1−ρ).
func CountHopLatencyBound(n int, beta int64, rho ratio.Rat) float64 {
	return 2 * (float64(n*n) + float64(beta)) / (1 - rho.Float64())
}

// AdjustWindowLatencyBound is Theorem 4: (18n³·lg²n + 2β)/(1−ρ).
func AdjustWindowLatencyBound(n int, beta int64, rho ratio.Rat) float64 {
	lgn := lgCeil(float64(n))
	return (18*math.Pow(float64(n), 3)*lgn*lgn + 2*float64(beta)) / (1 - rho.Float64())
}

// KCycleLatencyBound is Theorem 5: (32+β)·n.
func KCycleLatencyBound(n int, beta int64) float64 {
	return (32 + float64(beta)) * float64(n)
}

// KCliqueLatencyBound is Theorem 7: 8(n²/k)(1+β/(2k)).
func KCliqueLatencyBound(n, k int, beta int64) float64 {
	return 8 * float64(n*n) / float64(k) * (1 + float64(beta)/float64(2*k))
}

// KSubsetsQueueBound is Theorem 8: 2·C(n,k)·(n²+β).
func KSubsetsQueueBound(n, k int, beta int64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return 2 * c * (float64(n*n) + float64(beta))
}
