// Package kclique implements algorithm k-Clique (paper §6): a plain-
// packet, k-energy-oblivious, direct-routing algorithm with latency
// 8(n²/k)(1 + β/2k) for injection rates ρ ≤ k²/(2n(2n−k)).
//
// The stations are partitioned into 2n/k disjoint half-sets of size k/2;
// every unordered pair of half-sets forms a clique of k stations. The
// pairs are arranged in a fixed cycle and take turns being active for one
// round each — all k members on, a fixed schedule, hence oblivious.
// Within a pair, OF-RRW runs, each member keeping a broadcast.Replica of
// it: the token holder transmits its old packets assigned to this pair;
// the destination of an assigned packet always belongs to the pair, so
// every heard packet is consumed immediately — routing is direct, no
// relays.
//
// Per the paper, k is assumed even and dividing 2n with k ≤ 2n/3; the
// constructor clamps a requested cap down to the largest feasible k.
package kclique

import (
	"fmt"
	"slices"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/sched"
)

// Layout is the static half-set / pair structure.
type Layout struct {
	N        int
	K        int // effective cap: even, divides 2n, ≤ 2n/3
	Sets     int // 2n/k half-sets
	NumPairs int

	pairIndex [][]int // set a, set b → pair index (a < b)
	pairs     [][2]int
	members   [][]int // pair → sorted stations
	pairsOf   [][]int // station → pair indices containing it
}

// FeasibleK returns the largest k' ≤ k that is even, divides 2n, and
// satisfies k' ≤ 2n/3; 0 if none exists.
func FeasibleK(n, k int) int {
	if k > 2*n/3 {
		k = 2 * n / 3
	}
	for ; k >= 2; k-- {
		if k%2 == 0 && (2*n)%k == 0 {
			return k
		}
	}
	return 0
}

// NewLayout computes the pair structure for n stations under cap k.
func NewLayout(n, k int) (*Layout, error) {
	if n < 3 {
		return nil, fmt.Errorf("kclique: need n >= 3, got %d", n)
	}
	ek := FeasibleK(n, k)
	if ek == 0 {
		return nil, fmt.Errorf("kclique: no feasible even k ≤ %d dividing 2n for n=%d", k, n)
	}
	c := 2 * n / ek
	lay := &Layout{
		N: n, K: ek, Sets: c,
		pairIndex: make([][]int, c),
		pairsOf:   make([][]int, n),
	}
	for a := 0; a < c; a++ {
		lay.pairIndex[a] = make([]int, c)
		for b := range lay.pairIndex[a] {
			lay.pairIndex[a][b] = -1
		}
	}
	half := ek / 2
	for a := 0; a < c; a++ {
		for b := a + 1; b < c; b++ {
			idx := len(lay.pairs)
			lay.pairIndex[a][b] = idx
			lay.pairIndex[b][a] = idx
			lay.pairs = append(lay.pairs, [2]int{a, b})
			m := make([]int, 0, ek)
			for s := a * half; s < (a+1)*half; s++ {
				m = append(m, s)
			}
			for s := b * half; s < (b+1)*half; s++ {
				m = append(m, s)
			}
			lay.members = append(lay.members, m)
			for _, s := range m {
				lay.pairsOf[s] = append(lay.pairsOf[s], idx)
			}
		}
	}
	lay.NumPairs = len(lay.pairs)
	return lay, nil
}

// SetOf returns the half-set of a station.
func (l *Layout) SetOf(s int) int { return s / (l.K / 2) }

// inPair reports whether station st belongs to pair p: its half-set is
// one of the pair's two.
func (l *Layout) inPair(p, st int) bool {
	set := l.SetOf(st)
	return set == l.pairs[p][0] || set == l.pairs[p][1]
}

// ActivePair returns the pair switched on in the given round.
func (l *Layout) ActivePair(round int64) int {
	return int(round % int64(l.NumPairs))
}

// PairFor returns the pair a packet src→dest is assigned to: the unique
// pair of both endpoints' half-sets, or — when the endpoints share a
// half-set — the pair of that set and the cyclically next one.
func (l *Layout) PairFor(src, dest int) int {
	a, b := l.SetOf(src), l.SetOf(dest)
	if a == b {
		b = (a + 1) % l.Sets
	}
	return l.pairIndex[a][b]
}

// Schedule returns the oblivious on/off schedule (period = #pairs).
func (l *Layout) Schedule() sched.Schedule {
	return sched.Func{
		N: l.N,
		P: int64(l.NumPairs),
		F: func(st int, round int64) bool {
			return l.inPair(l.ActivePair(round), st)
		},
	}
}

type station struct {
	id  int
	lay *Layout

	// Pair-local state in membership order (pairs = lay.pairsOf[id],
	// sorted ascending). Pairs activate in index order, so a cursor into
	// the sorted membership list replaces a per-round map lookup.
	pairs  []int
	reps   []broadcast.Replica // one OF-RRW replica per pair membership
	cursor int
	cycle  int64
}

func newStation(id int, lay *Layout) *station {
	pairs := lay.pairsOf[id]
	s := &station{id: id, lay: lay, pairs: pairs, reps: make([]broadcast.Replica, len(pairs)), cycle: -1}
	for i, p := range pairs {
		s.reps[i] = broadcast.NewReplica(broadcast.OFRRW, id, lay.members[p], lay.N)
	}
	return s
}

// local returns the membership index of pair p, which must contain the
// station: a binary search of the sorted membership list.
func (s *station) local(p int) int {
	i, _ := slices.BinarySearch(s.pairs, p)
	return i
}

func (s *station) Inject(p mac.Packet) {
	s.reps[s.local(s.lay.PairFor(s.id, p.Dest))].Inject(p)
}

func (s *station) Act(round int64) core.Action {
	cycle := round / int64(s.lay.NumPairs)
	if cycle != s.cycle {
		s.cycle = cycle
		s.cursor = 0
	}
	pair := s.lay.ActivePair(round)
	for s.cursor < len(s.pairs) && s.pairs[s.cursor] < pair {
		s.cursor++
	}
	if s.cursor >= len(s.pairs) || s.pairs[s.cursor] != pair {
		return core.Off()
	}
	return s.reps[s.cursor].Act(round)
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Only called for switched-on rounds: Act left the cursor on the
	// active pair.
	s.reps[s.cursor].Observe(round, fb)
}

func (s *station) QueueLen() int {
	total := 0
	for i := range s.reps {
		total += s.reps[i].QueueLen()
	}
	return total
}

// Quiescent implements mac.Skipper: with every pair's replica idle, each
// on-duty round ends in silence and the only transition is a token pass
// in the active pair.
func (s *station) Quiescent() bool {
	for i := range s.reps {
		if !s.reps[i].Idle() {
			return false
		}
	}
	return true
}

// SkipIdle implements mac.Skipper: each pair's replica saw one silence
// per round its pair was active. cycle and the cursor are left stale —
// Act self-corrects exactly as after a long off stretch: a cycle change
// resets the cursor, a same-cycle wake-up resumes the monotone scan.
func (s *station) SkipIdle(from, to int64) {
	for i, p := range s.pairs {
		s.reps[i].SkipIdle(from, to, 1, int64(s.lay.NumPairs), int64(p))
	}
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	for i := range s.reps {
		dst = s.reps[i].AppendHeld(dst)
	}
	return dst
}

// New builds a k-Clique system for n ≥ 3 stations under energy cap k.
// The effective cap (after feasibility clamping) is reported by the
// system's Info.EnergyCap.
func New(n, k int) (*core.System, error) {
	lay, err := NewLayout(n, k)
	if err != nil {
		return nil, err
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = newStation(i, lay)
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:        fmt.Sprintf("%d-clique", lay.K),
			EnergyCap:   lay.K,
			PlainPacket: true,
			Direct:      true,
			Oblivious:   true,
		},
		Stations: stations,
		Schedule: lay.Schedule(),
		// Idle rounds: the k members of the active pair listen in silence.
		Idle: core.ConstIdle{Energy: lay.K},
	}, nil
}
