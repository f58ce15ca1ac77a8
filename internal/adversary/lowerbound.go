package adversary

import (
	"earmac/internal/core"
	"earmac/internal/ratio"
	"earmac/internal/sched"
)

// LeastOn is the Theorem 6 adversary: against a k-energy-oblivious
// algorithm, some station v is switched on for at most (k/n)·t rounds in
// any window of t rounds (double counting over the published schedule).
// Injecting into v at a rate above k/n therefore grows v's queue without
// bound: v cannot even transmit the packets fast enough, regardless of
// destinations or relaying. Destinations cycle over the other stations.
func LeastOn(s sched.Schedule, typ Type) *Adv {
	v, _ := sched.MinOnStation(s)
	n := s.NumStations()
	c := 0
	return New(typ, AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			d := (v + 1 + c%(n-1)) % n
			c++
			buf = append(buf, core.Injection{Station: v, Dest: d})
		}
		return buf
	}))
}

// CriticalObliviousRate returns k/n — the throughput ceiling for
// k-energy-oblivious algorithms (Theorem 6).
func CriticalObliviousRate(k, n int) ratio.Rat { return ratio.New(int64(k), int64(n)) }

// LeastPair is the Theorem 9 adversary for direct-routing k-oblivious
// algorithms: some ordered pair (w, z) is on together for at most
// k(k−1)/(n(n−1))·t rounds per window of t; direct delivery of a w→z
// packet needs exactly such a round, so flooding w with z-addressed
// packets above that rate is unanswerable.
func LeastPair(s sched.Schedule, typ Type) *Adv {
	w, z, _ := sched.MinOnPair(s)
	return New(typ, SingleTarget(w, z))
}

// CriticalDirectRate returns k(k−1)/(n(n−1)) — the throughput ceiling for
// direct-routing k-oblivious algorithms (Theorems 8 and 9).
func CriticalDirectRate(k, n int) ratio.Rat {
	return ratio.New(int64(k)*int64(k-1), int64(n)*int64(n-1))
}

// Lemma1 is an adaptive realization of the Theorem 2 construction: no
// algorithm with energy cap 2 on n ≥ 3 stations is stable at injection
// rate 1. The proof maintains a station s with no packets and none
// addressed to it; while s stays off, the adversary plays Case II (a
// packet s1→s2 every round, none of which can be delivered in a round
// where s is on, because with cap 2 at most one of {s1, s2} is then on);
// if s stays off for good, it switches to Case I (packets addressed to s,
// which then never deliver). The proof quantifies over executions; this
// adaptive adversary replays its strategy with a finite patience window
// and defeats cap-2 algorithms in practice.
type Lemma1 struct {
	n        int
	patience int64
	bucket   *Bucket

	round     int64
	s, s1, s2 int
	lastOn    []int64
	addressed []bool
	parity    bool
	started   bool
}

// NewLemma1 builds the adversary for an n-station system. Patience is the
// number of rounds s may stay off before the adversary switches to Case I;
// a few multiples of n works well.
func NewLemma1(n int, patience int64) *Lemma1 {
	if n < 3 {
		panic("adversary: Lemma1 needs n >= 3")
	}
	if patience < 1 {
		patience = int64(4 * n)
	}
	l := &Lemma1{
		n:         n,
		patience:  patience,
		bucket:    NewBucket(T(1, 1, 1)),
		s:         -1,
		lastOn:    make([]int64, n),
		addressed: make([]bool, n),
	}
	for i := range l.lastOn {
		l.lastOn[i] = -1
	}
	return l
}

// InjectAppend implements core.Adversary.
func (l *Lemma1) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	budget := l.bucket.Tick()
	defer func() { l.round = round }()
	if round == 0 || budget == 0 {
		// Observe the first round before committing to a target.
		l.bucket.Spend(0)
		return buf
	}
	if !l.started {
		l.pickTarget(round)
		l.started = true
	}
	// If s was switched on recently it is "awake": play Case II.
	// Otherwise s looks permanently off: play Case I.
	for i := 0; i < budget; i++ {
		if round-l.lastOn[l.s] <= l.patience && l.lastOn[l.s] >= 0 {
			buf = append(buf, core.Injection{Station: l.s1, Dest: l.s2})
			l.addressed[l.s2] = true
		} else {
			// Case I: alternate destinations s and s2.
			l.parity = !l.parity
			if l.parity {
				buf = append(buf, core.Injection{Station: l.s1, Dest: l.s})
				l.addressed[l.s] = true
			} else {
				buf = append(buf, core.Injection{Station: l.s1, Dest: l.s2})
				l.addressed[l.s2] = true
			}
		}
	}
	l.bucket.Spend(budget)
	return buf
}

// ObserveRound implements core.RoundObserver.
func (l *Lemma1) ObserveRound(round int64, on []bool) {
	for i, o := range on {
		if o {
			l.lastOn[i] = round
		}
	}
	// If our target has been addressed (Case I ran) and it just switched
	// on, its pending packets may drain; restart the construction with a
	// fresh target that has never been addressed, if one exists.
	if l.started && on[l.s] && l.addressed[l.s] {
		l.pickTarget(round)
	}
}

// pickTarget chooses s = an unaddressed station that has been off longest,
// and s1, s2 = the two smallest other stations.
func (l *Lemma1) pickTarget(round int64) {
	best, bestAge := -1, int64(-1)
	for i := 0; i < l.n; i++ {
		if l.addressed[i] {
			continue
		}
		age := round - l.lastOn[i]
		if l.lastOn[i] < 0 {
			age = round + 1
		}
		if age > bestAge {
			best, bestAge = i, age
		}
	}
	if best >= 0 {
		l.s = best
	} else if l.s < 0 {
		l.s = 0
	}
	l.s1, l.s2 = -1, -1
	for i := 0; i < l.n; i++ {
		if i == l.s {
			continue
		}
		if l.s1 < 0 {
			l.s1 = i
		} else if l.s2 < 0 {
			l.s2 = i
			break
		}
	}
}
