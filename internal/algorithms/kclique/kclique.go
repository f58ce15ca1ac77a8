// Package kclique implements algorithm k-Clique (paper §6): a plain-
// packet, k-energy-oblivious, direct-routing algorithm with latency
// 8(n²/k)(1 + β/2k) for injection rates ρ ≤ k²/(2n(2n−k)).
//
// The stations are partitioned into 2n/k disjoint half-sets of size k/2;
// every unordered pair of half-sets forms a clique of k stations. The
// pairs are arranged in a fixed cycle and take turns being active for one
// round each — all k members on, a fixed schedule, hence oblivious.
// Within a pair, OF-RRW runs: the token holder transmits its old packets
// assigned to this pair; the destination of an assigned packet always
// belongs to the pair, so every heard packet is consumed immediately —
// routing is direct, no relays.
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
	"earmac/internal/pktq"
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

// pairQueue is one station's packet queue for one of its pairs, with
// the pair ring's phase tail implementing OF-RRW's old/new distinction.
type pairQueue struct {
	q    *pktq.Queue
	tail broadcast.PhaseTail
}

type station struct {
	id  int
	lay *Layout

	// Pair-local state in membership order (pairs = lay.pairsOf[id],
	// sorted ascending). Pairs activate in index order, so a cursor into
	// the sorted membership list replaces a per-round map lookup.
	pairs  []int
	rings  []*broadcast.Ring
	subs   []*pairQueue
	cursor int
	cycle  int64

	pendingTx int64
}

func newStation(id int, lay *Layout) *station {
	pairs := lay.pairsOf[id]
	s := &station{
		id: id, lay: lay,
		pairs: pairs,
		rings: make([]*broadcast.Ring, len(pairs)),
		subs:  make([]*pairQueue, len(pairs)),
		cycle: -1, pendingTx: -1,
	}
	for i, p := range pairs {
		s.rings[i] = broadcast.NewRing(lay.members[p])
		s.subs[i] = &pairQueue{q: pktq.New(lay.N)}
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
	i := s.local(s.lay.PairFor(s.id, p.Dest))
	sub := s.subs[i]
	sub.q.Push(p)
	sub.tail.Pushed(s.rings[i].Phase())
}

func (s *station) Act(round int64) core.Action {
	s.pendingTx = -1
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
	ring := s.rings[s.cursor]
	if ring.Holder() != s.id {
		return core.Listen()
	}
	sub := s.subs[s.cursor]
	front, ok := sub.q.Front()
	if !ok || sub.tail.FrontIsNew(ring.Phase(), sub.q.Len()) {
		return core.Listen() // silence advances the token
	}
	s.pendingTx = front.ID
	return core.Transmit(mac.PacketMsg(front))
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Only called for switched-on rounds: Act left the cursor on the
	// active pair.
	ring := s.rings[s.cursor]
	switch fb.Kind {
	case mac.FbHeard:
		ring.ObserveHeard()
		if s.pendingTx >= 0 {
			s.subs[s.cursor].q.Remove(s.pendingTx)
			s.pendingTx = -1
		}
	case mac.FbSilence:
		ring.ObserveSilence()
	}
}

func (s *station) QueueLen() int {
	total := 0
	for _, sub := range s.subs {
		total += sub.q.Len()
	}
	return total
}

// Quiescent implements mac.Skipper: with every pair-queue empty, each
// on-duty round ends in silence and the only transition is an
// ObserveSilence on the active pair's ring.
func (s *station) Quiescent() bool {
	if s.pendingTx >= 0 {
		return false
	}
	for _, sub := range s.subs {
		if sub.q.Len() != 0 {
			return false
		}
	}
	return true
}

// countCongruent counts rounds r in [from, to) with r % mod == res.
func countCongruent(from, to, mod, res int64) int64 {
	f := func(x int64) int64 {
		if x <= res {
			return 0
		}
		return (x-res-1)/mod + 1
	}
	return f(to) - f(from)
}

// SkipIdle implements mac.Skipper: each membership's ring saw one silence
// per round its pair was active. cycle and the cursor are left stale —
// Act self-corrects exactly as after a long off stretch: a cycle change
// resets the cursor, a same-cycle wake-up resumes the monotone scan.
func (s *station) SkipIdle(from, to int64) {
	np := int64(s.lay.NumPairs)
	for i, p := range s.pairs {
		if m := countCongruent(from, to, np, int64(p)); m > 0 {
			s.rings[i].SkipSilences(m)
		}
	}
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	for _, sub := range s.subs {
		dst = sub.q.AppendTo(dst)
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
