package adversary

import (
	"math/rand"

	"earmac/internal/core"
)

// Pattern decides where packets go. DrawAppend is called once per round
// with the bucket's budget (maximum packets injectable this round) and
// appends at most that many injections to buf, returning the extended
// slice; the caller reuses buf across rounds, so the steady-state round
// loop performs no allocation. Patterns are deterministic: randomized
// ones take an explicit seed.
type Pattern interface {
	DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection
}

// AppendFunc adapts an append-style function to a Pattern.
type AppendFunc func(round int64, budget int, buf []core.Injection) []core.Injection

// DrawAppend implements Pattern.
//
//earmac:hotpath
func (f AppendFunc) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	return f(round, budget, buf)
}

// Adv is a leaky-bucket adversary combining a Type with a Pattern; it
// implements core.Adversary.
type Adv struct {
	bucket *Bucket
	pat    Pattern
}

// New builds an adversary of the given type driven by the pattern.
func New(typ Type, pat Pattern) *Adv {
	return &Adv{bucket: NewBucket(typ), pat: pat}
}

// InjectAppend implements core.Adversary: it offers the pattern this
// round's budget, clips what it drew to the budget, and debits the
// bucket for what was kept.
//
//earmac:hotpath
func (a *Adv) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	budget := a.bucket.Tick()
	if budget == 0 {
		a.bucket.Spend(0)
		return buf
	}
	start := len(buf)
	buf = a.pat.DrawAppend(round, budget, buf)
	if len(buf)-start > budget {
		buf = buf[:start+budget]
	}
	a.bucket.Spend(len(buf) - start)
	return buf
}

// Uniform injects at the full permitted rate with sources and destinations
// drawn uniformly (and independently) from [0, n).
func Uniform(n int, seed int64) Pattern {
	rng := rand.New(rand.NewSource(seed))
	return AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			buf = append(buf, core.Injection{Station: rng.Intn(n), Dest: rng.Intn(n)})
		}
		return buf
	})
}

// SingleTarget floods one fixed source station with packets for one fixed
// destination — the paper's worst case for Orchestra's move-big-to-front
// mechanism and the flooding strategy of the lower-bound proofs.
func SingleTarget(src, dest int) Pattern {
	return AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			buf = append(buf, core.Injection{Station: src, Dest: dest})
		}
		return buf
	})
}

// HotSource injects everything into one station with destinations cycling
// over all other stations.
func HotSource(src, n int) Pattern {
	next := 0
	return AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			d := next % n
			if d == src {
				next++
				d = next % n
			}
			next++
			buf = append(buf, core.Injection{Station: src, Dest: d})
		}
		return buf
	})
}

// RoundRobin cycles the source over all stations and addresses each packet
// to the next station in cyclic order — maximally spread traffic.
func RoundRobin(n int) Pattern {
	c := 0
	return AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			s := c % n
			buf = append(buf, core.Injection{Station: s, Dest: (s + 1) % n})
			c++
		}
		return buf
	})
}

// Bursty saves credit and dumps the whole budget every period rounds,
// exercising the burstiness component β of the adversary type.
func Bursty(inner Pattern, period int64) Pattern { return &burstyPat{inner, period} }

type burstyPat struct {
	inner  Pattern
	period int64
}

// DrawAppend implements Pattern.
//
//earmac:hotpath
func (b *burstyPat) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	if round%b.period != b.period-1 {
		return buf
	}
	return b.inner.DrawAppend(round, budget, buf)
}

// NextDrawRound implements PatternSkipper: the first burst boundary at
// or after the inner pattern's own horizon. Off-boundary rounds never
// reach the inner pattern, so they are draw-free by construction.
func (b *burstyPat) NextDrawRound(from int64) int64 {
	nr := NextDraw(b.inner, nextCongruent(from, b.period, b.period-1))
	if nr < 0 {
		return -1
	}
	return nextCongruent(nr, b.period, b.period-1)
}

// Diurnal gates an inner pattern with a duty cycle: injections flow only
// during the first dutyNum/dutyDen fraction of each period — the
// under-utilized-LAN traffic shape of the paper's Ethernet motivation.
// The leaky bucket still enforces the overall (ρ, β) type; during the
// active phase the bucket's accumulated credit drains as a burst.
func Diurnal(inner Pattern, period, dutyNum, dutyDen int64) Pattern {
	return &diurnalPat{inner, period, dutyNum, dutyDen}
}

type diurnalPat struct {
	inner   Pattern
	period  int64
	dutyNum int64
	dutyDen int64
}

// DrawAppend implements Pattern.
//
//earmac:hotpath
func (d *diurnalPat) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	if (round%d.period)*d.dutyDen >= d.period*d.dutyNum {
		return buf
	}
	return d.inner.DrawAppend(round, budget, buf)
}

// nextActive returns the first round >= from inside an active window.
// The active window is a prefix of each period, so an inactive round's
// successor window opens at the next period boundary.
func (d *diurnalPat) nextActive(from int64) int64 {
	if (from%d.period)*d.dutyDen < d.period*d.dutyNum {
		return from
	}
	return (from/d.period + 1) * d.period
}

// NextDrawRound implements PatternSkipper.
func (d *diurnalPat) NextDrawRound(from int64) int64 {
	if d.dutyNum <= 0 {
		return -1
	}
	nr := NextDraw(d.inner, d.nextActive(from))
	if nr < 0 {
		return -1
	}
	return d.nextActive(nr)
}

// Stop disables injections from the given round on, so the system can be
// drained to verify eventual delivery.
func Stop(inner Pattern, after int64) Pattern { return &stopPat{inner, after} }

type stopPat struct {
	inner Pattern
	after int64
}

// DrawAppend implements Pattern.
//
//earmac:hotpath
func (s *stopPat) DrawAppend(round int64, budget int, buf []core.Injection) []core.Injection {
	if round >= s.after {
		return buf
	}
	return s.inner.DrawAppend(round, budget, buf)
}

// NextDrawRound implements PatternSkipper. Once the stop round is
// reached the pattern never draws again — the horizon every drain
// phase of a benchmark run skips to its end on.
func (s *stopPat) NextDrawRound(from int64) int64 {
	if from >= s.after {
		return -1
	}
	nr := NextDraw(s.inner, from)
	if nr < 0 || nr >= s.after {
		return -1
	}
	return nr
}
