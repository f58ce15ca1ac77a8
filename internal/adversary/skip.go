package adversary

// Quiescence support (DESIGN.md §16). An Adv implements
// core.EventSkipper by composing its bucket's credit horizon with its
// pattern's draw horizon; spans therefore cover only rounds on which
// the real loop would neither have offered the pattern a budget nor
// received a packet from it — in particular, no RNG of a stochastic
// pattern is ever skipped, because a pattern without skip support pins
// the horizon to the first round its DrawAppend would run.

// PatternSkipper is an optional Pattern extension: NextDrawRound
// returns a lower bound on the earliest round >= from at which the
// pattern may return a nonempty draw (-1: never again). Early answers
// are safe — the simulator wakes, draws nothing, and re-enters
// quiescence — late answers are not. Deterministic gating combinators
// (Bursty, Diurnal, Stop) implement it; stochastic leaf
// patterns deliberately do not.
type PatternSkipper interface {
	NextDrawRound(from int64) int64
}

// NextDraw resolves a pattern's draw horizon, defaulting to from — a
// pattern without skip support may draw on any round it is offered a
// budget.
func NextDraw(p Pattern, from int64) int64 {
	if ps, ok := p.(PatternSkipper); ok {
		return ps.NextDrawRound(from)
	}
	return from
}

// nextCongruent returns the smallest round >= from congruent to res
// modulo period.
func nextCongruent(from, period, res int64) int64 {
	return from + (res-from%period+period)%period
}

// NextEventRound implements core.EventSkipper: the earliest round >=
// from on which the bucket can afford a packet and the pattern may
// draw one. Both horizons are lower bounds, so their composition is.
func (a *Adv) NextEventRound(from int64) int64 {
	j := a.bucket.RoundsToCredit()
	if j < 0 {
		return -1
	}
	return NextDraw(a.pat, from+j)
}

// SkipIdle implements core.EventSkipper: the skipped rounds are proven
// draw-free, so only the bucket's credit advances.
func (a *Adv) SkipIdle(from, to int64) {
	a.bucket.SkipRounds(to - from)
}
