package broadcast

import (
	"slices"

	"earmac/internal/core"
	"earmac/internal/mac"
)

// Roster is the duty rotation of a k-energy-oblivious system: its member
// sets take turns on duty in index order, each for every consecutive
// rounds per turn, and in a set's turn exactly its members are switched
// on. Set i is thus on duty in the rounds t with (t/every) mod len(sets)
// = i. k-Cycle's groups serve δ rounds per turn, k-Clique's pairs and
// k-Subsets' threads one; the standalone baselines are a roster of one
// set. A Roster is its system's schedule (sched.Schedule) and idle
// profile, and a Seat is one station's part in it.
type Roster struct {
	n      int
	every  int64
	sets   [][]int // set → its members, ascending
	period int64   // every · len(sets)
}

// NewRoster builds the rotation of the given member sets over stations
// [0, n), each set on duty for every rounds per turn. Every set must be
// non-empty and ascending; the roster shares them, and they must not
// change.
func NewRoster(n int, every int64, sets [][]int) *Roster {
	if every < 1 || len(sets) == 0 {
		panic("broadcast: a roster needs a set and turns of at least one round")
	}
	return &Roster{n: n, every: every, sets: sets, period: every * int64(len(sets))}
}

// NumStations implements sched.Schedule.
func (r *Roster) NumStations() int { return r.n }

// Period implements sched.Schedule: one turn of every set.
func (r *Roster) Period() int64 { return r.period }

// OnDuty returns the set on duty in round t.
func (r *Roster) OnDuty(t int64) int { return int(t / r.every % int64(len(r.sets))) }

// Members returns set i's members, ascending. The slice is shared.
func (r *Roster) Members(i int) []int { return r.sets[i] }

// AppendOn implements sched.Schedule: it appends the members of the set
// on duty in round t, ascending.
//
//earmac:hotpath
func (r *Roster) AppendOn(t int64, buf []int) []int { return append(buf, r.sets[r.OnDuty(t)]...) }

// Idle returns the roster's idle profile: in a quiescent round the
// on-duty set's members listen in silence. It is constant when every
// set has one size and cycles over one period otherwise.
func (r *Roster) Idle() core.IdleProfiler {
	for _, m := range r.sets {
		if len(m) != len(r.sets[0]) {
			return core.IdleProfileFunc(r.appendIdleCycle)
		}
	}
	return core.ConstIdle{Energy: len(r.sets[0])}
}

func (r *Roster) appendIdleCycle(from int64, buf []core.IdleRound) []core.IdleRound {
	for t := from; t < from+r.period; t++ {
		buf = append(buf, core.IdleRound{Energy: len(r.sets[r.OnDuty(t)])})
	}
	return buf
}

// Seats builds every station's seat: a replica of the given protocol for
// each set the station belongs to, with a queue for destinations in
// [0, n).
func (r *Roster) Seats(kind Kind) []Seat {
	seats := make([]Seat, r.n)
	for i, m := range r.sets {
		for _, st := range m {
			seats[st].sets = append(seats[st].sets, i)
		}
	}
	for st := range seats {
		s := &seats[st]
		s.roster = r
		s.base = -r.period
		s.reps = make([]Replica, len(s.sets))
		for i, set := range s.sets {
			s.reps[i] = NewReplica(kind, st, r.sets[set], r.n)
		}
	}
	return seats
}

// Seat is one station's part in a Roster: a replica of the protocol for
// each set the station belongs to. It finds the replica on duty in a
// round, hands it the round's feedback, and answers for all of them for
// the station's queue and idle stretches.
//
// The seat keeps the station's current turn, or the off stretch before
// its next one, as a window of rounds that ends at round to. A round
// inside the window costs one comparison; the next window is found by
// walking on through the station's sets, with one division when a new
// cycle begins.
type Seat struct {
	roster *Roster
	sets   []int     // the sets the station belongs to, ascending
	reps   []Replica // reps[i] is the station's replica for sets[i]

	to   int64    // the window's end
	duty *Replica // the replica on duty over the window, nil when off
	base int64    // first round of the cycle the window lies in
	next int      // index in sets of the first of the station's turns in that cycle not over before the window
}

// Duty returns the station's replica on duty in round t, or nil when the
// station is off. Rounds must not decrease from one call to the next;
// gaps between them (off rounds not asked about, SkipIdle stretches) are
// fine. It stays small enough to inline into a station's Act.
//
//earmac:hotpath
func (s *Seat) Duty(t int64) *Replica {
	if t >= s.to {
		s.move(t)
	}
	return s.duty
}

// move makes the window the station's turn that contains round t, or
// the off stretch from t to its next turn or the cycle's end.
func (s *Seat) move(t int64) {
	r := s.roster
	if t >= s.base+r.period {
		s.base, s.next = t-t%r.period, 0
	}
	off := t - s.base
	for s.next < len(s.sets) && int64(s.sets[s.next]+1)*r.every <= off {
		s.next++
	}
	s.duty = nil
	if s.next == len(s.sets) {
		s.to = s.base + r.period
		return
	}
	if start := s.base + int64(s.sets[s.next])*r.every; t < start {
		s.to = start
	} else {
		s.to, s.duty = start+r.every, &s.reps[s.next]
	}
}

// Set returns the set on duty in the round Duty last found the station
// on duty in.
func (s *Seat) Set() int { return s.sets[s.next] }

// Replica returns the station's replica for the given set, which must
// contain the station.
//
//earmac:hotpath
func (s *Seat) Replica(set int) *Replica {
	i, ok := slices.BinarySearch(s.sets, set)
	if !ok {
		panic("broadcast: seat outside the set")
	}
	return &s.reps[i]
}

// Observe hands the feedback of a round the station was switched on in
// to the replica Duty found on duty.
//
//earmac:hotpath
func (s *Seat) Observe(t int64, fb mac.Feedback) { s.duty.Observe(t, fb) }

// QueueLen returns the packets queued over all the station's replicas.
//
//earmac:hotpath
func (s *Seat) QueueLen() int {
	total := 0
	for i := range s.reps {
		total += s.reps[i].QueueLen()
	}
	return total
}

// AppendHeld appends every replica's queued packets to dst.
func (s *Seat) AppendHeld(dst []mac.Packet) []mac.Packet {
	for i := range s.reps {
		dst = s.reps[i].AppendHeld(dst)
	}
	return dst
}

// Quiescent implements mac.Skipper: with every replica idle, each round
// the station is on duty ends in silence, whose only effect is a token
// pass in the set on duty.
func (s *Seat) Quiescent() bool {
	for i := range s.reps {
		if !s.reps[i].Idle() {
			return false
		}
	}
	return true
}

// SkipIdle implements mac.Skipper: each replica sees one silence per
// round of its set's turns in [from, to). The window depends on the
// round alone, so Duty finds the right one after the jump.
func (s *Seat) SkipIdle(from, to int64) {
	r := s.roster
	for i, set := range s.sets {
		s.reps[i].SkipIdle(from, to, r.every, int64(len(r.sets)), int64(set))
	}
}
