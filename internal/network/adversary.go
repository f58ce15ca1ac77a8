package network

import (
	"fmt"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/ratio"
	"earmac/internal/registry"
)

// SplitType divides a global (ρ, β) adversary type evenly across
// channels, with exact rational arithmetic: each of the `channels`
// entry buckets gets rate ρ/channels and burstiness β/channels floored
// at 1. The floor keeps every channel live — a bucket with β < 1 can
// never afford even a single packet, because any 1-packet window needs
// ρ_c·1 + β_c ≥ 1 — so the budget-split invariant is:
//
//   - rates split exactly: Σ_c ρ_c = ρ, and
//   - bursts split exactly whenever β ≥ channels (Σ_c β_c = β); for
//     β < channels the floor *overshoots* — the channels jointly hold
//     burst credit `channels`, more than the nominal β — so the network
//     total respects the (ρ, max(β, channels)) contract, NOT the
//     nominal (ρ, β) one.
//
// Per channel, the entry stream always respects (ρ/channels,
// max(β/channels, 1)); the network-wide entry stream respects the
// effective global type scenario.EffectiveGlobalType(split, channels) =
// (ρ, max(β, channels)). CheckAdmissibleSplit audits recorded traces
// against both. SplitType fails, wrapping registry.ErrBadRate or
// registry.ErrBadBurst, when the split type or its entry bucket
// (adversary.CheckType) does not fit int64 arithmetic.
func SplitType(typ adversary.Type, channels int) (adversary.Type, error) {
	if channels < 1 {
		panic("network: SplitType with no channels")
	}
	rho, ok := typ.Rho.DivInt(int64(channels))
	if !ok {
		return adversary.Type{}, fmt.Errorf("network: %w: ρ = %v split over %d channels overflows int64",
			registry.ErrBadRate, typ.Rho, channels)
	}
	beta, ok := typ.Beta.DivInt(int64(channels))
	if !ok {
		return adversary.Type{}, fmt.Errorf("network: %w: β = %v split over %d channels overflows int64",
			registry.ErrBadBurst, typ.Beta, channels)
	}
	if beta.Less(ratio.One()) {
		beta = ratio.One()
	}
	split := adversary.Type{Rho: rho, Beta: beta}
	return split, adversary.CheckType(split)
}

// NewAdversary builds the network's budget-splitting entry: channel c's
// entry adversary is an ordinary leaky-bucket adversary.Adv of the
// evenly split global budget (SplitType) driven by pats[c], so each
// channel's draws are clipped online by that channel's own bucket.
// pats must hold one pattern per channel (independent seeds keep
// channels' randomness uncorrelated). Patterns draw over the global
// station space; each drawn source is folded into the entry channel
// (local = station mod N), while the destination stays global — so any
// registered single-channel pattern doubles as a network workload
// without modification.
func NewAdversary(topo *Topology, typ adversary.Type, pats []adversary.Pattern) ([]core.Adversary, error) {
	if len(pats) != topo.Channels() {
		return nil, fmt.Errorf("network: %d patterns for %d channels", len(pats), topo.Channels())
	}
	split, err := SplitType(typ, topo.Channels())
	if err != nil {
		return nil, err
	}
	entry := make([]core.Adversary, len(pats))
	for c, p := range pats {
		entry[c] = adversary.New(split, &foldPat{inner: p, topo: topo, ch: c})
	}
	return entry, nil
}

// foldPat folds the sources its inner pattern draws over the global
// station space into channel ch; destinations stay global.
type foldPat struct {
	inner adversary.Pattern
	topo  *Topology
	ch    int
}

// DrawAppend implements adversary.Pattern.
//
//earmac:hotpath
func (f *foldPat) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	start := len(buf)
	buf = f.inner.DrawAppend(round, budget, buf)
	n := f.topo.StationsPerChannel()
	for i := start; i < len(buf); i++ {
		buf[i].Station = f.topo.Global(f.ch, buf[i].Station%n)
	}
	return buf
}

// NextDrawRound implements adversary.PatternSkipper: folding moves no
// draw, so the inner pattern's horizon stands.
func (f *foldPat) NextDrawRound(from int64) int64 {
	return adversary.NextDraw(f.inner, from)
}
