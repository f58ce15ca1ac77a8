// Package sched models the fixed on/off schedules of energy-oblivious
// algorithms. Per the paper (§2), an algorithm is energy-oblivious when it
// determines in advance, for each station and round, whether the station
// is on; it is k-energy-oblivious when at most k stations are on per
// round. A Schedule names each round's on-set, which the simulator's
// schedule scan compares with the stations' actions round by round. The
// impossibility adversaries of Theorems 6 and 9 are constructed directly
// from these schedules (by double counting station-rounds and
// station-pair-rounds), so the package also provides that analysis.
package sched

import "fmt"

// Schedule is a periodic, statically-known on/off assignment.
type Schedule interface {
	// NumStations returns the system size n.
	NumStations() int
	// Period returns the period after which the schedule repeats.
	Period() int64
	// AppendOn appends to buf, in ascending order, the stations switched
	// on in the given round, and returns the extended slice.
	AppendOn(round int64, buf []int) []int
}

// Func adapts a per-station predicate to a Schedule.
type Func struct {
	N int
	P int64
	F func(station int, round int64) bool
}

func (f Func) NumStations() int { return f.N }
func (f Func) Period() int64    { return f.P }

// AppendOn implements Schedule.
func (f Func) AppendOn(round int64, buf []int) []int {
	for st := 0; st < f.N; st++ {
		if f.F(st, round%f.P) {
			buf = append(buf, st)
		}
	}
	return buf
}

// OnCounts returns, for each station, the number of rounds per period in
// which it is switched on.
func OnCounts(s Schedule) []int64 {
	counts := make([]int64, s.NumStations())
	var on []int
	for t := int64(0); t < s.Period(); t++ {
		on = s.AppendOn(t, on[:0])
		for _, i := range on {
			counts[i]++
		}
	}
	return counts
}

// PairCounts returns, for each ordered pair (w, z) with w != z, the number
// of rounds per period in which both are on simultaneously. The diagonal
// holds the per-station on-counts.
func PairCounts(s Schedule) [][]int64 {
	n := s.NumStations()
	counts := make([][]int64, n)
	for i := range counts {
		counts[i] = make([]int64, n)
	}
	var on []int
	for t := int64(0); t < s.Period(); t++ {
		on = s.AppendOn(t, on[:0])
		for _, w := range on {
			for _, z := range on {
				counts[w][z]++
			}
		}
	}
	return counts
}

// MaxSimultaneous returns the maximum number of stations switched on in
// any round of a period — the energy the schedule actually needs.
func MaxSimultaneous(s Schedule) int {
	most := 0
	var on []int
	for t := int64(0); t < s.Period(); t++ {
		on = s.AppendOn(t, on[:0])
		most = max(most, len(on))
	}
	return most
}

// Validate checks that the schedule never exceeds the energy cap.
func Validate(s Schedule, cap int) error {
	var on []int
	for t := int64(0); t < s.Period(); t++ {
		if on = s.AppendOn(t, on[:0]); len(on) > cap {
			return fmt.Errorf("sched: %d stations on in round %d exceeds cap %d", len(on), t, cap)
		}
	}
	return nil
}

// MinOnStation returns the station with the fewest on-rounds per period
// (ties broken by smallest name) and its on-count. This is the target the
// Theorem 6 adversary floods: that station can transmit at most
// (k/n)·t packets in t rounds.
func MinOnStation(s Schedule) (station int, onRounds int64) {
	counts := OnCounts(s)
	station, onRounds = 0, counts[0]
	for i, c := range counts {
		if c < onRounds {
			station, onRounds = i, c
		}
	}
	return station, onRounds
}

// MinOnPair returns the ordered pair (w, z), w != z, that is switched on
// together in the fewest rounds per period, and that co-on count. This is
// the pair the Theorem 9 adversary floods (inject at w, addressed to z):
// direct delivery w→z requires both on simultaneously.
func MinOnPair(s Schedule) (w, z int, coOn int64) {
	counts := PairCounts(s)
	n := s.NumStations()
	w, z = 0, 1
	coOn = counts[0][1]
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if counts[a][b] < coOn {
				w, z, coOn = a, b, counts[a][b]
			}
		}
	}
	return w, z, coOn
}
