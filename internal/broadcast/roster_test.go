package broadcast_test

import (
	"math/rand"
	"slices"
	"testing"

	"earmac/internal/algorithms/kclique"
	"earmac/internal/algorithms/kcycle"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/broadcast"
	"earmac/internal/core"
)

// TestRosterAppendOn: a round's on-set is the members of the set on
// duty, which changes every `every` rounds and cycles through the sets
// in index order, over two periods, for one-round turns and longer
// ones; AppendOn appends after what buf holds.
func TestRosterAppendOn(t *testing.T) {
	sets := [][]int{{0, 1, 2}, {2, 3}, {0, 3, 4, 5}}
	for _, every := range []int64{1, 5} {
		r := broadcast.NewRoster(6, every, sets)
		if r.Period() != every*3 || r.NumStations() != 6 {
			t.Fatalf("every %d: period %d, n %d", every, r.Period(), r.NumStations())
		}
		for round := int64(0); round < 2*r.Period(); round++ {
			set := int(round/every) % len(sets)
			if got := r.OnDuty(round); got != set {
				t.Fatalf("every %d round %d: set %d on duty, want %d", every, round, got, set)
			}
			if got, want := r.AppendOn(round, []int{9}), append([]int{9}, sets[set]...); !slices.Equal(got, want) {
				t.Fatalf("every %d round %d: AppendOn = %v, want %v", every, round, got, want)
			}
		}
	}
}

// TestSeatFollowsRoster: a seat taken through an irregular rising
// sequence of rounds, with gaps inside a turn, across turns and across
// whole cycles (the rounds a sim asks about after SkipIdle), is on duty
// exactly in the rounds the roster lists its station, and then names
// the set on duty and hands out that set's replica.
func TestSeatFollowsRoster(t *testing.T) {
	for name, build := range map[string]func() (*core.System, error){
		"3-cycle-n7":   func() (*core.System, error) { return kcycle.New(7, 3) },
		"4-cycle-n12":  func() (*core.System, error) { return kcycle.New(12, 4) },
		"4-clique-n8":  func() (*core.System, error) { return kclique.New(8, 4) },
		"2-clique-n3":  func() (*core.System, error) { return kclique.New(3, 2) },
		"3-subsets-n6": func() (*core.System, error) { return ksubsets.New(6, 3) },
		"2-subsets-n5": func() (*core.System, error) { return ksubsets.New(5, 2) },
	} {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		r := sys.Schedule.(*broadcast.Roster)
		seats := r.Seats(broadcast.OFRRW)
		period, every := r.Period(), int64(1)
		for r.OnDuty(every) == r.OnDuty(0) {
			every++
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		var on []int
		for st := range seats {
			seat := &seats[st]
			round := int64(0)
			for range 4000 {
				on = r.AppendOn(round, on[:0])
				rep := seat.Duty(round)
				if want := slices.Contains(on, st); (rep != nil) != want {
					t.Fatalf("%s station %d round %d: on duty %v, roster lists %v", name, st, round, rep != nil, on)
				}
				if rep != nil {
					if set := r.OnDuty(round); seat.Set() != set || rep != seat.Replica(set) {
						t.Fatalf("%s station %d round %d: seat names set %d, set %d on duty", name, st, round, seat.Set(), set)
					}
				}
				next := round + 1
				switch rng.Intn(8) {
				case 0: // a gap inside or just past a turn
					next += rng.Int63n(every)
				case 1: // across several turns
					next += every + rng.Int63n(3*every)
				case 2: // across whole cycles
					next += (1+rng.Int63n(3))*period + rng.Int63n(period)
				}
				seat.SkipIdle(round+1, next)
				round = next
			}
		}
	}
}
