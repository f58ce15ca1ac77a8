// Package scenario turns workloads into data. It supplies the three
// pieces the hand-written injection patterns lack:
//
//   - Seeded stochastic patterns (Bernoulli and Poisson-batch injection)
//     whose per-round volume is sampled from a PRG and then clipped
//     online by the adversary's integer leaky bucket, so every sampled
//     run provably respects the (ρ, β) contract while still exercising
//     the randomized workloads the paper's guarantees quantify over.
//   - Phase schedules (Phased) that compose any registered patterns into
//     a time-varying scenario — quiet → burst → sustained-ρ — either
//     cycling or holding the final phase for the rest of the run.
//   - A versioned, schema-stable JSONL trace format (see trace.go) that
//     records the injection stream of any run and replays it bit-for-bit
//     on both the fast and the checked simulator paths.
//
// The stochastic patterns register themselves ("bernoulli",
// "poisson-batch", "quiet") next to the built-ins, so they are available
// to the façade Config, Suite grids, and every CLI by name.
package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"earmac/internal/adversary"
	"earmac/internal/core"
)

// Quiet injects nothing; the leaky bucket sits at full credit β, so the
// phase following a quiet one opens with the largest admissible burst.
// It is the canonical first segment of a phased scenario.
func Quiet() adversary.Pattern { return quietPat{} }

type quietPat struct{}

// DrawAppend implements adversary.Pattern.
func (quietPat) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	return buf
}

// NextDrawRound implements adversary.PatternSkipper: a quiet phase
// never draws, so the quiescence engine skips straight across it.
func (quietPat) NextDrawRound(from int64) int64 { return -1 }

// Bernoulli injects, each round, one packet with probability
// p = min(1, pNum/pDen) — sources and destinations uniform over [0, n).
// Rounds on which the bucket has no whole credit forfeit their draw, so
// with p = ρ the realized rate sits somewhat below ρ (the credit
// random-walks against the cap β) and every sampled run is admissible
// by construction.
func Bernoulli(n int, seed, pNum, pDen int64) adversary.Pattern {
	if pNum > pDen {
		pNum = pDen
	}
	rng := rand.New(rand.NewSource(seed))
	return adversary.AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		if rng.Int63n(pDen) < pNum {
			buf = append(buf, core.Injection{Station: rng.Intn(n), Dest: rng.Intn(n)})
		}
		return buf
	})
}

// PoissonBatch samples, each round, a batch of K ~ Poisson(λ) packets
// with λ = lNum/lDen and uniform sources and destinations. Unlike
// Bernoulli it produces multi-packet rounds (batches), so it stresses
// burst handling; batches exceeding the bucket's remaining budget are
// clipped online, which keeps every run admissible and caps any single
// round at ⌊ρ + β⌋ packets as the model requires.
func PoissonBatch(n int, seed, lNum, lDen int64) adversary.Pattern {
	rng := rand.New(rand.NewSource(seed))
	// Knuth's product-of-uniforms sampler; λ stays small (≤ ρ ≤ 1 in
	// practice), so the expected number of draws per round is ~1 + λ.
	thresh := math.Exp(-float64(lNum) / float64(lDen))
	return adversary.AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		k := 0
		for p := rng.Float64(); p > thresh; p *= rng.Float64() {
			k++
		}
		if k > budget {
			k = budget
		}
		for i := 0; i < k; i++ {
			buf = append(buf, core.Injection{Station: rng.Intn(n), Dest: rng.Intn(n)})
		}
		return buf
	})
}

// Segment is one phase of a schedule: a pattern active for Rounds
// consecutive rounds. Rounds must be positive, except on the final
// segment where 0 means "for the rest of the run".
type Segment struct {
	Pattern adversary.Pattern
	Rounds  int64
}

// Phased composes patterns into a time-varying schedule. When the final
// segment is open-ended (Rounds == 0) the schedule runs each phase once
// and then holds the last; otherwise it cycles with period equal to the
// total length. Inner patterns always receive the global round number,
// so round-periodic patterns (bursty, diurnal) keep their own phase.
type Phased struct {
	pats   []adversary.Pattern
	ends   []int64 // cumulative end round per segment; -1 = open-ended
	period int64   // cycle length; 0 when the last segment is open-ended
}

// NewPhased validates and assembles a phase schedule.
func NewPhased(segs []Segment) (*Phased, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("scenario: empty phase schedule")
	}
	p := &Phased{
		pats: make([]adversary.Pattern, len(segs)),
		ends: make([]int64, len(segs)),
	}
	var cum int64
	for i, s := range segs {
		if s.Pattern == nil {
			return nil, fmt.Errorf("scenario: phase %d has a nil pattern", i)
		}
		p.pats[i] = s.Pattern
		switch {
		case s.Rounds > 0:
			cum += s.Rounds
			p.ends[i] = cum
		case s.Rounds == 0 && i == len(segs)-1:
			p.ends[i] = -1
		default:
			return nil, fmt.Errorf("scenario: phase %d has %d rounds; only the last phase may be open-ended", i, s.Rounds)
		}
	}
	if p.ends[len(segs)-1] != -1 {
		p.period = cum
	}
	return p, nil
}

// DrawAppend implements adversary.Pattern: it dispatches to the
// segment active at round, scanning the (short) segment list — no
// allocation, so phased scenarios keep the simulator's round loop
// allocation-free.
func (p *Phased) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	r := round
	if p.period > 0 {
		r %= p.period
	}
	for i, end := range p.ends {
		if end < 0 || r < end {
			return p.pats[i].DrawAppend(round, budget, buf)
		}
	}
	return buf // open-ended schedules always match the last segment
}

// segmentAt locates the segment active at global round r, returning
// its index and the global round its current occurrence ends at (-1
// for the open-ended final segment).
func (p *Phased) segmentAt(r int64) (int, int64) {
	local := r
	var base int64
	if p.period > 0 {
		base = r - r%p.period
		local = r % p.period
	}
	for i, end := range p.ends {
		if end < 0 {
			return i, -1
		}
		if local < end {
			return i, base + end
		}
	}
	// Unreachable: a cycling schedule has local < period = ends[last],
	// a non-cycling one ends with -1.
	return len(p.ends) - 1, -1
}

// NextDrawRound implements adversary.PatternSkipper: it walks the
// schedule from the segment containing from, querying each segment's
// pattern once, for at most one full pass. Segments whose pattern has
// no skip support answer with their own start (a stochastic phase pins
// the horizon, preserving its per-round RNG draws); if a full pass
// yields nothing the next unexamined boundary is returned — a
// conservative-early answer, which the contract allows.
func (p *Phased) NextDrawRound(from int64) int64 {
	r := from
	never := true
	for hops := 0; hops <= len(p.pats); hops++ {
		i, end := p.segmentAt(r)
		nr := adversary.NextDraw(p.pats[i], r)
		if nr >= 0 {
			never = false
			if end < 0 || nr < end {
				return nr
			}
		}
		if end < 0 {
			// Open-ended final segment that never draws again.
			return -1
		}
		r = end
	}
	if never {
		return -1
	}
	return r
}

// rateOf resolves the rate a stochastic builder targets: the contracted
// ρ when the caller supplied it, 1/2 otherwise.
func rateOf(p adversary.PatternParams) (int64, int64) {
	if p.RhoNum > 0 && p.RhoDen > 0 {
		return p.RhoNum, p.RhoDen
	}
	return 1, 2
}

// The scenario patterns register next to the built-ins; linking this
// package (the façade always does) makes them available by name.
func init() {
	adversary.RegisterPattern("quiet", adversary.PatternMeta{
		Summary: "injects nothing; bucket credit accrues for the next phase",
	}, func(p adversary.PatternParams) (adversary.Pattern, error) {
		return Quiet(), nil
	})
	adversary.RegisterPattern("bernoulli", adversary.PatternMeta{
		Summary:    "one packet per round with probability ρ, uniform endpoints, bucket-clipped",
		Randomized: true,
		Stochastic: true,
	}, func(p adversary.PatternParams) (adversary.Pattern, error) {
		num, den := rateOf(p)
		return Bernoulli(p.N, p.Seed, num, den), nil
	})
	adversary.RegisterPattern("poisson-batch", adversary.PatternMeta{
		Summary:    "Poisson(ρ) batch per round, uniform endpoints, bucket-clipped",
		Randomized: true,
		Stochastic: true,
	}, func(p adversary.PatternParams) (adversary.Pattern, error) {
		num, den := rateOf(p)
		return PoissonBatch(p.N, p.Seed, num, den), nil
	})
}
