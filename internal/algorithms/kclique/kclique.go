// Package kclique implements algorithm k-Clique (paper §6): a plain-
// packet, k-energy-oblivious, direct-routing algorithm with latency
// 8(n²/k)(1 + β/2k) for injection rates ρ ≤ k²/(2n(2n−k)).
//
// The stations are partitioned into 2n/k disjoint half-sets of size k/2;
// every unordered pair of half-sets forms a clique of k stations. The
// pairs are arranged in a fixed cycle and take turns being active for one
// round each — all k members on, a fixed schedule (a broadcast.Roster of
// the pairs), hence oblivious. Within a pair, OF-RRW runs, each member
// keeping a broadcast.Replica of it in its broadcast.Seat: the token
// holder transmits its old packets assigned to this pair; the
// destination of an assigned packet always belongs to the pair, so
// every heard packet is consumed immediately — routing is direct, no
// relays.
//
// Per the paper, k is assumed even and dividing 2n with k ≤ 2n/3; the
// constructor clamps a requested cap down to the largest feasible k.
package kclique

import (
	"fmt"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/mac"
)

// Layout is the static half-set / pair structure.
type Layout struct {
	N        int
	K        int // effective cap: even, divides 2n, ≤ 2n/3
	Sets     int // 2n/k half-sets
	NumPairs int

	pairIndex [][]int           // set a, set b → pair index (a < b)
	roster    *broadcast.Roster // the pairs, each on duty one round per turn
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
	}
	for a := 0; a < c; a++ {
		lay.pairIndex[a] = make([]int, c)
		for b := range lay.pairIndex[a] {
			lay.pairIndex[a][b] = -1
		}
	}
	half := ek / 2
	var pairs [][]int
	for a := 0; a < c; a++ {
		for b := a + 1; b < c; b++ {
			lay.pairIndex[a][b] = len(pairs)
			lay.pairIndex[b][a] = len(pairs)
			m := make([]int, 0, ek)
			for s := a * half; s < (a+1)*half; s++ {
				m = append(m, s)
			}
			for s := b * half; s < (b+1)*half; s++ {
				m = append(m, s)
			}
			pairs = append(pairs, m)
		}
	}
	lay.NumPairs = len(pairs)
	lay.roster = broadcast.NewRoster(n, 1, pairs)
	return lay, nil
}

// SetOf returns the half-set of a station.
func (l *Layout) SetOf(s int) int { return s / (l.K / 2) }

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

// station is one k-Clique station: its seat holds an OF-RRW replica per
// pair it belongs to, and the station assigns each injection its pair.
type station struct {
	broadcast.Seat
	id  int
	lay *Layout
}

func (s *station) Inject(p mac.Packet) { s.Replica(s.lay.PairFor(s.id, p.Dest)).Inject(p) }

func (s *station) Act(round int64) core.Action {
	if r := s.Duty(round); r != nil {
		return r.Act(round)
	}
	return core.Off()
}

// New builds a k-Clique system for n ≥ 3 stations under energy cap k.
// The effective cap (after feasibility clamping) is reported by the
// system's Info.EnergyCap.
func New(n, k int) (*core.System, error) {
	lay, err := NewLayout(n, k)
	if err != nil {
		return nil, err
	}
	seats := lay.roster.Seats(broadcast.OFRRW)
	stations := make([]core.Protocol, n)
	for i := range stations {
		stations[i] = &station{Seat: seats[i], id: i, lay: lay}
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
		Schedule: lay.roster,
		// Idle rounds: the k members of the active pair listen in silence.
		Idle: lay.roster.Idle(),
	}, nil
}
