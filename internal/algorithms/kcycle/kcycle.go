// Package kcycle implements algorithm k-Cycle (paper §5): a plain-packet,
// k-energy-oblivious, indirect-routing algorithm with latency O(n) for
// injection rates below (k−1)/(n−1).
//
// The n stations are covered by ℓ = ⌈n/(k−1)⌉ groups of (up to) k
// consecutive stations; consecutive groups share one station, their
// connector, and the last group wraps around to share station 0 with the
// first. Groups take turns being active for δ = ⌈4(n−1)k/(n−k)⌉ rounds
// each, in round-robin order, with all member stations switched on — a
// fixed schedule, hence energy-oblivious. Within its activity rounds a
// group runs OF-RRW, each member keeping a broadcast.Replica of it: a
// token cycles through the members; the holder transmits its old packets
// associated with this group; a silent round advances the token; a full
// token cycle ends the group's phase. A heard packet is consumed if its
// destination belongs to the active group and otherwise adopted by the
// group's connector, hopping group to group around the cycle until it
// reaches its destination's group.
//
// Packets carry a group association (see DESIGN.md §4): injected packets
// belong to a group containing both endpoints when one exists, otherwise
// to the injection station's forward group; adopted packets move to the
// next group. This realizes the paper's store-and-forward intent without
// bouncing packets at connectors.
package kcycle

import (
	"fmt"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/sched"
)

// Layout is the static group structure shared by all stations.
type Layout struct {
	N     int
	K     int // effective k after the paper's clamp 2k ≤ n+1
	L     int // number of groups
	Delta int64

	members   [][]int // group → sorted member stations
	groupsOf  [][]int // station → groups it belongs to
	connector []int   // group → connector station shared with next group
	forward   []int   // station → its forward group (where it is first)
}

// NewLayout computes the group structure. The requested cap k is clamped
// to ⌊(n+1)/2⌋ per the paper ("if n ≤ 2k then k gets decreased such that
// 2k = n + 1").
func NewLayout(n, k int) (*Layout, error) {
	if n < 3 {
		return nil, fmt.Errorf("kcycle: need n >= 3, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("kcycle: need k >= 2, got %d", k)
	}
	if k > (n+1)/2 {
		k = (n + 1) / 2
	}
	l := (n + k - 2) / (k - 1) // ⌈n/(k−1)⌉
	lay := &Layout{
		N: n, K: k, L: l,
		Delta:     int64((4*(n-1)*k + (n - k) - 1) / (n - k)), // ⌈4(n−1)k/(n−k)⌉
		members:   make([][]int, l),
		groupsOf:  make([][]int, n),
		connector: make([]int, l),
		forward:   make([]int, n),
	}
	for i := range lay.forward {
		lay.forward[i] = -1
	}
	for g := 0; g < l; g++ {
		start := g * (k - 1)
		var m []int
		if g < l-1 {
			for s := start; s < start+k; s++ {
				m = append(m, s)
			}
			lay.connector[g] = start + k - 1
		} else {
			// Last group: remaining stations plus the wrap to station 0.
			m = append(m, 0)
			for s := start; s < n; s++ {
				m = append(m, s)
			}
			lay.connector[g] = 0
		}
		lay.members[g] = m
		for _, s := range m {
			lay.groupsOf[s] = append(lay.groupsOf[s], g)
		}
		// The group's first station (in cycle direction) treats g as its
		// forward group.
		lay.forward[start%n] = g
	}
	// Station 0 is first in group 0.
	lay.forward[0] = 0
	for s := 0; s < n; s++ {
		if lay.forward[s] == -1 {
			lay.forward[s] = lay.groupsOf[s][0]
		}
	}
	return lay, nil
}

// inGroup reports whether station st belongs to group g: the k
// consecutive stations from g(k−1), or, for the last group, station 0
// and every station from its start on.
func (l *Layout) inGroup(g, st int) bool {
	start := g * (l.K - 1)
	if g == l.L-1 {
		return st == 0 || st >= start
	}
	return start <= st && st < start+l.K
}

// ActiveGroup returns the group switched on in the given round.
func (l *Layout) ActiveGroup(round int64) int {
	return int((round / l.Delta) % int64(l.L))
}

// Schedule returns the oblivious on/off schedule.
func (l *Layout) Schedule() sched.Schedule {
	return sched.Func{
		N: l.N,
		P: l.Delta * int64(l.L),
		F: func(st int, round int64) bool {
			return l.inGroup(l.ActiveGroup(round), st)
		},
	}
}

// HomeGroup returns the group a packet injected at src with the given
// destination is initially associated with.
func (l *Layout) HomeGroup(src, dest int) int {
	for _, g := range l.groupsOf[src] {
		if l.inGroup(g, dest) {
			return g
		}
	}
	return l.forward[src]
}

// NextGroup returns the group after g in the forwarding cycle.
func (l *Layout) NextGroup(g int) int { return (g + 1) % l.L }

type station struct {
	id  int
	lay *Layout

	// Group-local state in membership order (groups = lay.groupsOf[id],
	// at most two entries), found by linear scan — cheaper than a map on
	// the per-round hot path.
	groups []int
	reps   []broadcast.Replica // one OF-RRW replica per group membership
}

func newStation(id int, lay *Layout) *station {
	groups := lay.groupsOf[id]
	s := &station{id: id, lay: lay, groups: groups, reps: make([]broadcast.Replica, len(groups))}
	for i, g := range groups {
		s.reps[i] = broadcast.NewReplica(broadcast.OFRRW, id, lay.members[g], lay.N)
	}
	return s
}

// local returns the membership index of group g, or -1 for non-members.
func (s *station) local(g int) int {
	for i, og := range s.groups {
		if og == g {
			return i
		}
	}
	return -1
}

func (s *station) Inject(p mac.Packet) {
	s.reps[s.local(s.lay.HomeGroup(s.id, p.Dest))].Inject(p)
}

func (s *station) Act(round int64) core.Action {
	i := s.local(s.lay.ActiveGroup(round))
	if i < 0 {
		return core.Off()
	}
	return s.reps[i].Act(round)
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Only called for switched-on rounds, i.e. active-group members.
	g := s.lay.ActiveGroup(round)
	s.reps[s.local(g)].Observe(round, fb)
	if fb.Kind != mac.FbHeard {
		return
	}
	if p := fb.Msg.Packet; !s.lay.inGroup(g, p.Dest) && s.id == s.lay.connector[g] {
		// Adopt and advance the packet to the next group.
		s.reps[s.local(s.lay.NextGroup(g))].Inject(p)
	}
}

func (s *station) QueueLen() int {
	total := 0
	for i := range s.reps {
		total += s.reps[i].QueueLen()
	}
	return total
}

// Quiescent implements mac.Skipper: with every group's replica idle,
// each on-duty round ends in silence and the only transition is a token
// pass in the active group.
func (s *station) Quiescent() bool {
	for i := range s.reps {
		if !s.reps[i].Idle() {
			return false
		}
	}
	return true
}

// SkipIdle implements mac.Skipper: each group's replica saw one silence
// per round of the group's δ-round activations.
func (s *station) SkipIdle(from, to int64) {
	for i, g := range s.groups {
		s.reps[i].SkipIdle(from, to, s.lay.Delta, int64(s.lay.L), int64(g))
	}
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	for i := range s.reps {
		dst = s.reps[i].AppendHeld(dst)
	}
	return dst
}

// New builds a k-Cycle system for n ≥ 3 stations under energy cap k ≥ 2.
// The effective cap (after the paper's clamp) is reported by the system's
// Info.EnergyCap.
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
			Name:        fmt.Sprintf("%d-cycle", lay.K),
			EnergyCap:   lay.K,
			PlainPacket: true,
			Oblivious:   true,
		},
		Stations: stations,
		Schedule: lay.Schedule(),
		// Idle rounds are silent with the active group's members on;
		// groups differ in size (the last wraps around), so the profile
		// cycles over one full activation super-period of δ·ℓ rounds.
		Idle: core.IdleProfileFunc(func(from int64, buf []core.IdleRound) []core.IdleRound {
			for j := int64(0); j < lay.Delta*int64(lay.L); j++ {
				buf = append(buf, core.IdleRound{
					Energy: len(lay.members[lay.ActiveGroup(from+j)]),
				})
			}
			return buf
		}),
	}, nil
}
