package sched

import (
	"slices"
	"testing"
	"testing/quick"
)

// roundRobinPairs: period n, in round t stations t and (t+1) mod n are on.
func roundRobinPairs(n int) Schedule {
	return Func{
		N: n,
		P: int64(n),
		F: func(st int, round int64) bool {
			return int64(st) == round || int64(st) == (round+1)%int64(n)
		},
	}
}

func TestOnCountsRoundRobin(t *testing.T) {
	s := roundRobinPairs(5)
	counts := OnCounts(s)
	for i, c := range counts {
		if c != 2 {
			t.Errorf("station %d on %d rounds, want 2", i, c)
		}
	}
}

func TestMaxSimultaneousAndValidate(t *testing.T) {
	s := roundRobinPairs(4)
	if got := MaxSimultaneous(s); got != 2 {
		t.Errorf("MaxSimultaneous = %d, want 2", got)
	}
	if err := Validate(s, 2); err != nil {
		t.Errorf("Validate(cap 2) = %v", err)
	}
	if err := Validate(s, 1); err == nil {
		t.Error("Validate(cap 1) should fail")
	}
}

func TestPairCounts(t *testing.T) {
	s := roundRobinPairs(4)
	pc := PairCounts(s)
	// Adjacent stations (i, i+1 mod 4) share exactly one round; stations two
	// apart share none.
	if pc[0][1] != 1 || pc[1][0] != 1 {
		t.Errorf("pc[0][1] = %d, pc[1][0] = %d, want 1", pc[0][1], pc[1][0])
	}
	if pc[0][2] != 0 {
		t.Errorf("pc[0][2] = %d, want 0", pc[0][2])
	}
	// Diagonal carries on-counts.
	if pc[2][2] != 2 {
		t.Errorf("pc[2][2] = %d, want 2", pc[2][2])
	}
}

func TestMinOnStation(t *testing.T) {
	// Station 3 is on only once; others at least twice.
	s := Func{N: 4, P: 4, F: func(st int, round int64) bool {
		if st == 3 {
			return round == 0
		}
		return round == int64(st) || round == (int64(st)+1)%4
	}}
	st, c := MinOnStation(s)
	if st != 3 || c != 1 {
		t.Errorf("MinOnStation = (%d, %d), want (3, 1)", st, c)
	}
}

func TestMinOnStationTieBreaksSmallest(t *testing.T) {
	s := Func{N: 3, P: 3, F: func(st int, round int64) bool { return round == 0 }}
	st, c := MinOnStation(s)
	if st != 0 || c != 1 {
		t.Errorf("MinOnStation tie = (%d, %d), want (0, 1)", st, c)
	}
}

func TestMinOnPair(t *testing.T) {
	// Stations {0,1} on in rounds 0-2, {2,3} only in round 3.
	// Cross pairs (0,2) etc. are never on together.
	s := Func{N: 4, P: 4, F: func(st int, round int64) bool {
		if round < 3 {
			return st == 0 || st == 1
		}
		return st == 2 || st == 3
	}}
	w, z, c := MinOnPair(s)
	if c != 0 {
		t.Errorf("MinOnPair co-on = %d, want 0", c)
	}
	if w == z {
		t.Errorf("MinOnPair returned diagonal pair (%d,%d)", w, z)
	}
	// A minimal pair must be a cross pair.
	sameSide := (w < 2) == (z < 2)
	if sameSide {
		t.Errorf("MinOnPair = (%d,%d), want a cross pair", w, z)
	}
}

// Property: sum of per-station on-counts equals total station-rounds, and
// no pair count exceeds either station's on-count (double counting used in
// Theorems 6 and 9).
func TestDoubleCountingProperties(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%5) + 3
		s := roundRobinPairs(n)
		counts := OnCounts(s)
		var total int64
		for _, c := range counts {
			total += c
		}
		// k=2 stations on per round, period n.
		if total != 2*int64(n) {
			return false
		}
		pc := PairCounts(s)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if pc[a][b] > counts[a] || pc[a][b] > counts[b] {
					return false
				}
				if pc[a][b] != pc[b][a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuncWrapsPeriod(t *testing.T) {
	s := roundRobinPairs(3)
	for r := int64(0); r < 3; r++ {
		if a, b := s.AppendOn(r, nil), s.AppendOn(r+3*7, nil); !slices.Equal(a, b) {
			t.Errorf("schedule not periodic at round %d: %v, then %v", r, a, b)
		}
	}
}

// TestFuncAppendsAscending: the adapter appends a round's on-set after
// what buf holds, in station order.
func TestFuncAppendsAscending(t *testing.T) {
	s := roundRobinPairs(4)
	if got, want := s.AppendOn(3, []int{9}), []int{9, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("AppendOn(3) = %v, want %v", got, want)
	}
}
