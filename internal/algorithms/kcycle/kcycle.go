// Package kcycle implements algorithm k-Cycle (paper §5): a plain-packet,
// k-energy-oblivious, indirect-routing algorithm with latency O(n) for
// injection rates below (k−1)/(n−1).
//
// The n stations are covered by ℓ = ⌈n/(k−1)⌉ groups of (up to) k
// consecutive stations; consecutive groups share one station, their
// connector, and the last group wraps around to share station 0 with the
// first. Groups take turns being active for δ = ⌈4(n−1)k/(n−k)⌉ rounds
// each, in round-robin order, with all member stations switched on — a
// fixed schedule, hence energy-oblivious: a broadcast.Roster of the
// groups, δ rounds per turn. Within its activity rounds a group runs
// OF-RRW, each member keeping a broadcast.Replica of it in its
// broadcast.Seat, which finds the replica on duty in a round: a
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
)

// Layout is the static group structure shared by all stations.
type Layout struct {
	N     int
	K     int // effective k after the paper's clamp 2k ≤ n+1
	L     int // number of groups
	Delta int64

	roster    *broadcast.Roster // the groups, each on duty δ rounds per turn
	connector []int             // group → connector station shared with next group
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
		connector: make([]int, l),
	}
	groups := make([][]int, l)
	for g := range groups {
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
		groups[g] = m
	}
	lay.roster = broadcast.NewRoster(n, lay.Delta, groups)
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

// HomeGroup returns the group a packet injected at src with the given
// destination is initially associated with: the first of src's groups
// holding dest too, or else src's forward group, the one src starts or
// lies inside, f = src/(k−1). src's groups are among f, f−1 (when src is
// the connector f−1 hands over at) and the wrapping last group.
func (l *Layout) HomeGroup(src, dest int) int {
	f := src / (l.K - 1)
	for _, g := range [...]int{f - 1, f, l.L - 1} {
		if g >= 0 && l.inGroup(g, src) && l.inGroup(g, dest) {
			return g
		}
	}
	return f
}

// NextGroup returns the group after g in the forwarding cycle.
func (l *Layout) NextGroup(g int) int { return (g + 1) % l.L }

// station is one k-Cycle station: its seat holds an OF-RRW replica per
// group it belongs to, at most two; the station routes injections to
// their home group and, as a connector, adopts packets bound onward.
type station struct {
	broadcast.Seat
	id  int
	lay *Layout
}

func (s *station) Inject(p mac.Packet) { s.Replica(s.lay.HomeGroup(s.id, p.Dest)).Inject(p) }

func (s *station) Act(round int64) core.Action {
	if r := s.Duty(round); r != nil {
		return r.Act(round)
	}
	return core.Off()
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Only called for switched-on rounds, i.e. active-group members.
	s.Seat.Observe(round, fb)
	if fb.Kind != mac.FbHeard {
		return
	}
	if g, p := s.Set(), fb.Msg.Packet; !s.lay.inGroup(g, p.Dest) && s.id == s.lay.connector[g] {
		// Adopt and advance the packet to the next group.
		s.Replica(s.lay.NextGroup(g)).Inject(p)
	}
}

// New builds a k-Cycle system for n ≥ 3 stations under energy cap k ≥ 2.
// The effective cap (after the paper's clamp) is reported by the system's
// Info.EnergyCap.
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
			Name:        fmt.Sprintf("%d-cycle", lay.K),
			EnergyCap:   lay.K,
			PlainPacket: true,
			Oblivious:   true,
		},
		Stations: stations,
		Schedule: lay.roster,
		// Idle rounds are silent with the active group's members on.
		// The last group wraps around and may be smaller, and then the
		// profile cycles over the δ·ℓ rounds of one rotation.
		Idle: lay.roster.Idle(),
	}, nil
}
