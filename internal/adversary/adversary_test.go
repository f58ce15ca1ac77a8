package adversary

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"earmac/internal/core"
	"earmac/internal/ratio"
	"earmac/internal/registry"
	"earmac/internal/sched"
)

func TestBucketSingleRoundBurst(t *testing.T) {
	// (ρ=1, β=3): at most ⌊β+ρ⌋ = 4 in the first round.
	b := NewBucket(T(1, 1, 3))
	if got := b.Tick(); got != 4 {
		t.Errorf("first-round budget = %d, want 4", got)
	}
	b.Spend(4)
	// Credit is now 0; next round exactly 1.
	if got := b.Tick(); got != 1 {
		t.Errorf("second-round budget = %d, want 1", got)
	}
}

func TestBucketFractionalRate(t *testing.T) {
	// ρ = 1/3, β = 1: budgets cycle so that exactly 1 packet is allowed
	// every 3 rounds once the initial burst is used.
	b := NewBucket(T(1, 3, 1))
	total := 0
	for i := 0; i < 30; i++ {
		m := b.Tick()
		b.Spend(m)
		total += m
	}
	// ≤ ρ·30 + β = 11, and full-rate spending achieves it.
	if total != 11 {
		t.Errorf("spent %d over 30 rounds, want 11", total)
	}
}

func TestBucketCreditCapsAtBeta(t *testing.T) {
	b := NewBucket(T(1, 2, 2))
	for i := 0; i < 100; i++ {
		b.Tick()
		b.Spend(0) // never inject
	}
	if b.Credit().Cmp(ratio.FromInt(2)) != 0 {
		t.Errorf("credit = %v, want capped at 2", b.Credit())
	}
}

func TestBucketOverspendPanics(t *testing.T) {
	b := NewBucket(T(1, 1, 1))
	b.Tick()
	defer func() {
		if recover() == nil {
			t.Error("overspend did not panic")
		}
	}()
	b.Spend(100)
}

func TestBucketNegativeTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative rho did not panic")
		}
	}()
	NewBucket(Type{Rho: ratio.New(-1, 2), Beta: ratio.FromInt(1)})
}

// Property: for random (ρ, β) and greedy spending, every window of every
// length satisfies the leaky-bucket bound Σ ≤ ρ·t + β.
func TestBucketWindowProperty(t *testing.T) {
	f := func(rn, rd uint8, beta uint8, greedySeed uint8) bool {
		num := int64(rn%10) + 1
		den := int64(rd%10) + 1
		if num > den {
			num, den = den, num // keep ρ ≤ 1
		}
		typ := Type{Rho: ratio.New(num, den), Beta: ratio.FromInt(int64(beta % 5))}
		b := NewBucket(typ)
		const rounds = 200
		spent := make([]int64, rounds)
		for i := 0; i < rounds; i++ {
			m := b.Tick()
			// Pseudo-greedy: sometimes skip to let credit rebuild.
			if (int(greedySeed)+i)%7 == 0 {
				m = 0
			}
			b.Spend(m)
			spent[i] = int64(m)
		}
		// Check all windows.
		for lo := 0; lo < rounds; lo++ {
			var sum int64
			for hi := lo; hi < rounds; hi++ {
				sum += spent[hi]
				windowLen := int64(hi - lo + 1)
				bound := typ.Rho.MulInt(windowLen).Add(typ.Beta)
				if bound.Less(ratio.FromInt(sum)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdvRespectsBudgetAndClamps(t *testing.T) {
	// Pattern tries to inject 100 packets per round; the bucket must clamp.
	greedy := AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < 100; i++ {
			buf = append(buf, core.Injection{Station: 0, Dest: 1})
		}
		return buf
	})
	a := New(T(1, 2, 1), greedy)
	var total int
	for r := int64(0); r < 100; r++ {
		total += len(a.InjectAppend(r, nil))
	}
	// ρ·100 + β = 51.
	if total != 51 {
		t.Errorf("injected %d over 100 rounds, want 51", total)
	}
}

func TestUniformDeterministicAndInRange(t *testing.T) {
	p1 := Uniform(7, 42)
	p2 := Uniform(7, 42)
	for r := int64(0); r < 50; r++ {
		a := p1.DrawAppend(r, 3, nil)
		b := p2.DrawAppend(r, 3, nil)
		if len(a) != 3 || len(b) != 3 {
			t.Fatal("wrong count")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("Uniform not deterministic for equal seeds")
			}
			if a[i].Station < 0 || a[i].Station >= 7 || a[i].Dest < 0 || a[i].Dest >= 7 {
				t.Fatal("out of range")
			}
		}
	}
}

func TestSingleTarget(t *testing.T) {
	p := SingleTarget(2, 5)
	injs := p.DrawAppend(0, 4, nil)
	if len(injs) != 4 {
		t.Fatal("wrong count")
	}
	for _, in := range injs {
		if in.Station != 2 || in.Dest != 5 {
			t.Errorf("injection %+v", in)
		}
	}
}

func TestHotSourceAvoidsSelf(t *testing.T) {
	p := HotSource(1, 4)
	for r := int64(0); r < 20; r++ {
		for _, in := range p.DrawAppend(r, 3, nil) {
			if in.Station != 1 {
				t.Error("wrong source")
			}
			if in.Dest == 1 {
				t.Error("HotSource addressed its own source")
			}
		}
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	p := RoundRobin(3)
	seen := map[int]int{}
	for r := int64(0); r < 9; r++ {
		for _, in := range p.DrawAppend(r, 1, nil) {
			seen[in.Station]++
			if in.Dest != (in.Station+1)%3 {
				t.Errorf("dest %d for src %d", in.Dest, in.Station)
			}
		}
	}
	for st, c := range seen {
		if c != 3 {
			t.Errorf("station %d used %d times, want 3", st, c)
		}
	}
}

func TestBurstyOnlyFiresOnPeriod(t *testing.T) {
	p := Bursty(SingleTarget(0, 1), 5)
	for r := int64(0); r < 20; r++ {
		injs := p.DrawAppend(r, 2, nil)
		if r%5 == 4 && len(injs) != 2 {
			t.Errorf("round %d: burst missing", r)
		}
		if r%5 != 4 && len(injs) != 0 {
			t.Errorf("round %d: unexpected injections", r)
		}
	}
}

func TestDiurnalDutyCycle(t *testing.T) {
	p := Diurnal(SingleTarget(0, 1), 100, 1, 4)
	for r := int64(0); r < 300; r++ {
		injs := p.DrawAppend(r, 1, nil)
		active := r%100 < 25
		if active && len(injs) != 1 {
			t.Errorf("round %d: expected injection during active phase", r)
		}
		if !active && len(injs) != 0 {
			t.Errorf("round %d: injection during quiet phase", r)
		}
	}
}

func TestStop(t *testing.T) {
	st := Stop(SingleTarget(0, 1), 5)
	for r := int64(0); r < 10; r++ {
		injs := st.DrawAppend(r, 1, nil)
		if r >= 5 && len(injs) != 0 {
			t.Errorf("round %d: injections after stop", r)
		}
		if r < 5 && len(injs) != 1 {
			t.Errorf("round %d: missing injection before stop", r)
		}
	}
}

func TestLeastOnTargetsMinOnStation(t *testing.T) {
	// Station 2 is never on.
	s := sched.Func{N: 4, P: 4, F: func(st int, round int64) bool {
		return st != 2 && int64(st) == round%3
	}}
	adv := LeastOn(s, T(1, 1, 1))
	injs := adv.InjectAppend(0, nil)
	if len(injs) == 0 {
		t.Fatal("no injections")
	}
	for _, in := range injs {
		if in.Station != 2 {
			t.Errorf("LeastOn injected into %d, want 2", in.Station)
		}
		if in.Dest == 2 {
			t.Errorf("LeastOn used the target as destination")
		}
	}
}

func TestLeastPairTargetsMinPair(t *testing.T) {
	// Stations 0,1 always on together; 2,3 never on.
	s := sched.Func{N: 4, P: 2, F: func(st int, round int64) bool { return st < 2 }}
	adv := LeastPair(s, T(1, 1, 1))
	injs := adv.InjectAppend(0, nil)
	if len(injs) == 0 {
		t.Fatal("no injections")
	}
	for _, in := range injs {
		pairOK := (in.Station >= 2 || in.Dest >= 2)
		if !pairOK {
			t.Errorf("LeastPair chose well-covered pair %+v", in)
		}
	}
}

// TestCriticalRates: the lower-bound adversaries aim at the rates of
// Theorems 6 and 9. Over a schedule in which every k-subset of the n
// stations takes one round in turn, double counting puts the least-on
// station (LeastOn's target) on in exactly k/n of the rounds and the
// least co-scheduled pair (LeastPair's) on together in exactly
// k(k−1)/(n(n−1)) of them.
func TestCriticalRates(t *testing.T) {
	const n, k = 6, 3
	var subsets [][]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				subsets = append(subsets, []int{a, b, c})
			}
		}
	}
	s := sched.Func{N: n, P: int64(len(subsets)), F: func(st int, round int64) bool {
		return slices.Contains(subsets[round], st)
	}}
	if _, on := sched.MinOnStation(s); ratio.New(on, s.P).Cmp(ratio.New(k, n)) != 0 {
		t.Errorf("least-on station on in %d of %d rounds, want k/n = %d/%d", on, s.P, k, n)
	}
	if _, _, co := sched.MinOnPair(s); ratio.New(co, s.P).Cmp(ratio.New(k*(k-1), n*(n-1))) != 0 {
		t.Errorf("least pair on together in %d of %d rounds, want k(k−1)/(n(n−1)) = %d/%d", co, s.P, k*(k-1), n*(n-1))
	}
}

func TestLemma1SwitchesToCaseI(t *testing.T) {
	l := NewLemma1(4, 6)
	// Round 0: no injections (observation round).
	if injs := l.InjectAppend(0, nil); len(injs) != 0 {
		t.Fatalf("round 0 injections: %v", injs)
	}
	// Stations 0 and 1 are on in round 0; 2 and 3 off → target is 2 or 3.
	l.ObserveRound(0, []bool{true, true, false, false})
	var caseIISeen, caseISeen bool
	for r := int64(1); r < 40; r++ {
		injs := l.InjectAppend(r, nil)
		for _, in := range injs {
			if in.Dest == l.s {
				caseISeen = true
			} else {
				caseIISeen = true
			}
		}
		// Target stays off the whole time.
		l.ObserveRound(r, []bool{true, true, false, false})
	}
	if caseIISeen {
		t.Log("Case II was played while s counted as recently on")
	}
	if !caseISeen {
		t.Error("Lemma1 never switched to Case I although s stayed off")
	}
}

func TestLemma1RetargetsWhenAddressedTargetWakes(t *testing.T) {
	l := NewLemma1(5, 2)
	l.InjectAppend(0, nil)
	on := []bool{true, true, false, false, false}
	l.ObserveRound(0, on)
	oldS := -1
	for r := int64(1); r < 30; r++ {
		l.InjectAppend(r, nil)
		if l.addressed[l.s] && oldS == -1 {
			oldS = l.s
			// Wake the addressed target: adversary must move on.
			on[l.s] = true
			l.ObserveRound(r, on)
			on[oldS] = false
			continue
		}
		l.ObserveRound(r, on)
	}
	if oldS == -1 {
		t.Skip("target never addressed within horizon")
	}
	if l.s == oldS {
		t.Error("Lemma1 did not retarget after its target woke")
	}
}

func TestLemma1RateRespectsType(t *testing.T) {
	l := NewLemma1(3, 4)
	var total int
	on := []bool{true, true, false}
	for r := int64(0); r < 100; r++ {
		total += len(l.InjectAppend(r, nil))
		l.ObserveRound(r, on)
	}
	if total > 101 { // ρ·100 + β = 101
		t.Errorf("Lemma1 injected %d > ρt+β", total)
	}
	if total < 95 {
		t.Errorf("Lemma1 injected only %d, should be near rate 1", total)
	}
}

func TestLemma1PanicsOnTinySystem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=2 did not panic")
		}
	}()
	NewLemma1(2, 1)
}

// TestCheckType: a type whose bucket does not fit int64 arithmetic is
// a typed error — ErrBadRate for the rate's common denominator or gain,
// ErrBadBurst for the cap and the cap + gain a Tick reaches — and
// NewBucket panics on exactly those types.
func TestCheckType(t *testing.T) {
	cases := []struct {
		name string
		typ  Type
		want error
	}{
		{"fits", T(1, 10, 100000000000000000), nil},
		{"headroom at the limit", T(1, 1, math.MaxInt64-1), nil},
		{"negative rate", Type{Rho: ratio.New(-1, 2), Beta: ratio.FromInt(1)}, registry.ErrBadRate},
		{"negative burst", Type{Rho: ratio.New(1, 2), Beta: ratio.FromInt(-1)}, registry.ErrBadBurst},
		{"coprime denominators", Type{Rho: ratio.New(1, 4000000007), Beta: ratio.New(1, 4000000009)}, registry.ErrBadRate},
		{"cap", T(1, 10, 1000000000000000000), registry.ErrBadBurst},
		{"cap plus gain", T(1, 1, math.MaxInt64), registry.ErrBadBurst},
	}
	for _, c := range cases {
		err := CheckType(c.typ)
		if (c.want == nil) != (err == nil) || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: CheckType(%v) = %v, want %v", c.name, c.typ, err, c.want)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewBucket(c.typ)
			return false
		}()
		if panicked != (err != nil) {
			t.Errorf("%s: NewBucket panicked = %v, CheckType error = %v", c.name, panicked, err)
		}
	}
}

func TestBucketOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("coprime huge denominators did not panic on overflow")
		}
	}()
	NewBucket(Type{Rho: ratio.New(1, 4000000007), Beta: ratio.New(1, 4000000009)})
}
