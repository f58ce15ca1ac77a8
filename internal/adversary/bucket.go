// Package adversary implements the paper's leaky-bucket adversarial model
// of packet injection (§2) plus the constructive adversaries realizing the
// impossibility theorems. An adversary of type (ρ, β) may inject at most
// ρ·t + β packets in any contiguous window of t rounds; ρ is the injection
// rate and β the burstiness coefficient.
package adversary

import (
	"fmt"
	"math"

	"earmac/internal/ratio"
	"earmac/internal/registry"
)

// Type is the adversary's (ρ, β) pair.
type Type struct {
	Rho  ratio.Rat
	Beta ratio.Rat
}

// T builds a Type from integer fractions: rho = rn/rd, beta = b.
func T(rn, rd, b int64) Type {
	return Type{Rho: ratio.New(rn, rd), Beta: ratio.FromInt(b)}
}

func (t Type) String() string { return fmt.Sprintf("(ρ=%v, β=%v)", t.Rho, t.Beta) }

// Bucket enforces the leaky-bucket constraint with exact rational credit.
// The credit starts at β, gains ρ per round, and is capped back to β after
// each round's injections, which yields exactly the paper's bound: at most
// ρ·t + β injections in any window of t rounds, and at most ⌊β + ρ⌋ in a
// single round.
//
// Internally the credit is an integer numerator over the fixed common
// denominator of ρ and β, so the per-round Tick/Spend pair is a handful
// of integer operations — exact (no drift, unlike floats) yet free of
// the gcd reductions general rational arithmetic would pay on the
// simulator's hot path.
type Bucket struct {
	typ    Type
	den    int64 // common denominator of ρ and β
	credit int64 // credit numerator over den
	gain   int64 // ρ numerator over den
	cap    int64 // β numerator over den
}

// NewBucket returns a bucket with full initial credit β. It panics
// with CheckType's error when typ does not fit the int64 arithmetic.
func NewBucket(typ Type) *Bucket {
	b, err := newBucket(typ)
	if err != nil {
		panic(err.Error())
	}
	return &b
}

// CheckType reports whether a bucket of type typ fits int64 arithmetic:
// the common denominator of ρ and β, the gain ρ and the cap β over it,
// and the cap + gain a Tick reaches before Spend re-caps the credit.
// The error wraps registry.ErrBadRate for a negative or unrepresentable
// rate and registry.ErrBadBurst for the burst; configuration validation
// returns it before any bucket is built.
func CheckType(typ Type) error {
	_, err := newBucket(typ)
	return err
}

// newBucket returns the bucket by value, so CheckType, which every
// Config validation runs, does not allocate.
func newBucket(typ Type) (Bucket, error) {
	if typ.Rho.Sign() < 0 {
		return Bucket{}, fmt.Errorf("adversary: %w: negative rate in %v", registry.ErrBadRate, typ)
	}
	if typ.Beta.Sign() < 0 {
		return Bucket{}, fmt.Errorf("adversary: %w: negative burstiness in %v", registry.ErrBadBurst, typ)
	}
	rd, bd := typ.Rho.Den(), typ.Beta.Den()
	g := bd
	for r := rd; r != 0; {
		g, r = r, g%r
	}
	den, ok := ratio.Mul64(rd/g, bd) // lcm(rd, bd)
	gain, okGain := ratio.Mul64(typ.Rho.Num(), den/rd)
	if !ok || !okGain {
		return Bucket{}, fmt.Errorf("adversary: %w: %v: the rate over the common denominator overflows int64",
			registry.ErrBadRate, typ)
	}
	burst, ok := ratio.Mul64(typ.Beta.Num(), den/bd)
	if !ok || burst > math.MaxInt64-gain {
		return Bucket{}, fmt.Errorf("adversary: %w: %v: the burst cap plus one round's rate overflows int64",
			registry.ErrBadBurst, typ)
	}
	return Bucket{typ: typ, den: den, credit: burst, gain: gain, cap: burst}, nil
}

// Type returns the bucket's (ρ, β).
func (b *Bucket) Type() Type { return b.typ }

// Tick advances one round: the credit gains ρ and the number of packets
// injectable this round is returned.
//
//earmac:hotpath
func (b *Bucket) Tick() int {
	b.credit += b.gain
	return int(b.credit / b.den)
}

// Spend consumes credit for m injections this round and re-caps the
// remaining credit at β. It panics if m exceeds the budget returned by
// Tick — the adversary must never exceed its type.
//
//earmac:hotpath
func (b *Bucket) Spend(m int) {
	b.credit -= int64(m) * b.den
	if b.credit < 0 {
		panic(fmt.Sprintf("adversary: overspent bucket by %v", ratio.New(-b.credit, b.den)))
	}
	if b.credit > b.cap {
		b.credit = b.cap
	}
}

// Credit returns the current credit (for tests).
func (b *Bucket) Credit() ratio.Rat { return ratio.New(b.credit, b.den) }

// RoundsToCredit returns how many further zero-injection rounds must
// pass before a Tick yields a budget of at least one packet: 0 means
// the very next round, -1 that the bucket can never afford a packet
// again (ρ = 0 with spent credit, or ρ + β < 1). Exact over draw-free
// stretches — the quiescence engine's bucket horizon. The credit
// invariant credit <= cap holds between rounds (Spend re-caps), so the
// credit before the j-th future Tick is min(credit + j·ρ, β) and the
// threshold is min(credit + j·ρ, β) + ρ >= 1.
func (b *Bucket) RoundsToCredit() int64 {
	if b.credit+b.gain >= b.den {
		return 0
	}
	if b.gain == 0 || b.cap+b.gain < b.den {
		return -1
	}
	return (b.den - b.credit - 1) / b.gain // ceil((den - gain - credit) / gain)
}

// SkipRounds advances the bucket past m zero-injection rounds in one
// step: exactly m Tick/Spend(0) pairs, each adding ρ and re-capping
// the credit at β.
func (b *Bucket) SkipRounds(m int64) {
	if m <= 0 || b.gain == 0 {
		return
	}
	if m > (b.cap-b.credit)/b.gain {
		b.credit = b.cap
		return
	}
	b.credit += m * b.gain
}
