// Package ksubsets implements algorithm k-Subsets (paper §6): a
// k-energy-oblivious direct-routing algorithm that is stable at injection
// rate k(k−1)/(n(n−1)) — the maximum any k-oblivious direct algorithm can
// achieve (Theorem 9) — with at most 2·C(n,k)·(n²+β) queued packets
// (Theorem 8).
//
// Fix the lexicographic enumeration A_0, …, A_{γ−1} of all γ = C(n,k)
// k-element subsets of the stations. Rounds i + jγ form thread i; during
// thread i's rounds exactly the stations of A_i are on — a fixed schedule
// (a broadcast.Roster of the threads), hence oblivious. Each thread runs
// an independent instance of Move-Big-To-Front [17] over its k members,
// each member keeping a broadcast.Replica of it, with its queue for the
// thread, in its broadcast.Seat. Time is grouped into phases of γ
// rounds; at each phase start a station allocates the packets injected
// during the previous phase to threads: per destination w, as balanced
// as possible (counts differing by at most 1) across the C(n−2,k−2)
// threads containing both endpoints.
//
// With MBTF inside, packets can starve (Table 1: latency ∞); the paper
// notes that substituting Round-Robin-Withholding [18] yields bounded
// latency Θ(γ(n+β)) for rates strictly below critical. NewRRW builds that
// variant, which is moreover plain-packet.
package ksubsets

import (
	"fmt"
	"math/big"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/mac"
)

// MaxThreads caps γ = C(n,k); configurations beyond it are rejected
// (thread state is per-station, so memory grows as n·γ).
const MaxThreads = 1 << 17

// Layout is the static thread structure.
type Layout struct {
	N, K     int
	Gamma    int
	roster   *broadcast.Roster // the threads, each on duty one round per turn
	eligible [][]int           // v*n+w → threads containing both v and w, ascending
}

// Binomial returns C(n, k) or MaxThreads+1 if it overflows the cap.
func Binomial(n, k int) int {
	var b big.Int
	b.Binomial(int64(n), int64(k))
	if !b.IsInt64() || b.Int64() > MaxThreads {
		return MaxThreads + 1
	}
	return int(b.Int64())
}

// NewLayout enumerates the k-subsets of [0,n).
func NewLayout(n, k int) (*Layout, error) {
	if n < 2 || n > 64 {
		return nil, fmt.Errorf("ksubsets: need 2 <= n <= 64, got %d", n)
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("ksubsets: need 2 <= k <= n, got k=%d n=%d", k, n)
	}
	gamma := Binomial(n, k)
	if gamma > MaxThreads {
		return nil, fmt.Errorf("ksubsets: C(%d,%d) exceeds the %d-thread cap", n, k, MaxThreads)
	}
	lay := &Layout{N: n, K: k, Gamma: gamma, eligible: make([][]int, n*n)}
	threads := make([][]int, 0, gamma)
	// Lexicographic enumeration.
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		m := make([]int, k)
		copy(m, comb)
		for _, v := range m {
			for _, w := range m {
				lay.eligible[v*n+w] = append(lay.eligible[v*n+w], len(threads))
			}
		}
		threads = append(threads, m)
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && comb[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < k; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
	if len(threads) != gamma {
		panic("ksubsets: enumeration mismatch")
	}
	lay.roster = broadcast.NewRoster(n, 1, threads)
	return lay, nil
}

// Eligible returns the threads containing both v and w.
func (l *Layout) Eligible(v, w int) []int { return l.eligible[v*l.N+w] }

// station is one k-Subsets station: its seat holds an MBTF (or RRW)
// replica per thread it belongs to, and the station stages each phase's
// injections and allocates them to threads when the next phase begins.
type station struct {
	broadcast.Seat
	id  int
	lay *Layout

	staging  []mac.Packet // injected this phase, allocated at next boundary
	counters [][]int64    // dest → per-eligible-thread allocation counts, nil before its first packet
	phaseEnd int64        // first round after the phase of the station's last Act
}

func (s *station) Inject(p mac.Packet) { s.staging = append(s.staging, p) }

// allocate distributes the previous phase's packets to threads, balanced
// per destination (the counters of eligible threads differ by at most 1).
func (s *station) allocate() {
	for _, p := range s.staging {
		el := s.lay.Eligible(s.id, p.Dest)
		cnt := s.counters[p.Dest]
		if cnt == nil {
			cnt = make([]int64, len(el))
			s.counters[p.Dest] = cnt
		}
		best := 0
		for i := 1; i < len(cnt); i++ {
			if cnt[i] < cnt[best] {
				best = i
			}
		}
		cnt[best]++
		s.Replica(el[best]).Inject(p)
	}
	s.staging = s.staging[:0]
}

func (s *station) Act(round int64) core.Action {
	if round >= s.phaseEnd {
		// A new phase: the packets staged before it go to their threads.
		g := int64(s.lay.Gamma)
		s.phaseEnd = round/g*g + g
		s.allocate()
	}
	if r := s.Duty(round); r != nil {
		return r.Act(round)
	}
	return core.Off()
}

func (s *station) QueueLen() int { return len(s.staging) + s.Seat.QueueLen() }

// Quiescent implements mac.Skipper: with nothing staged and every
// thread's replica idle, every on-duty round finds an empty holder — the
// station listens and the only transition is a token pass.
func (s *station) Quiescent() bool { return len(s.staging) == 0 && s.Seat.Quiescent() }

// SkipIdle implements mac.Skipper: each thread's replica saw one
// silence per round its thread was on duty, and the phase moves on as
// if Act(to−1) had run, with nothing staged to allocate. The phase must
// NOT be left stale: a wake-up round injects before it acts, and a
// stale phase would make Act allocate the fresh packet a phase early
// instead of staging it until the next real boundary.
func (s *station) SkipIdle(from, to int64) {
	s.Seat.SkipIdle(from, to)
	g := int64(s.lay.Gamma)
	s.phaseEnd = (to-1)/g*g + g
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	return s.Seat.AppendHeld(append(dst, s.staging...))
}

func build(n, k int, kind broadcast.Kind) (*core.System, error) {
	lay, err := NewLayout(n, k)
	if err != nil {
		return nil, err
	}
	seats := lay.roster.Seats(kind)
	stations := make([]core.Protocol, n)
	for i := range stations {
		stations[i] = &station{Seat: seats[i], id: i, lay: lay, counters: make([][]int64, n)}
	}
	rrw := kind == broadcast.RRW
	name := fmt.Sprintf("%d-subsets", k)
	if rrw {
		name += "-rrw"
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:        name,
			EnergyCap:   k,
			PlainPacket: rrw,
			Direct:      true,
			Oblivious:   true,
		},
		Stations: stations,
		Schedule: lay.roster,
		// Idle rounds: the k members of the active thread listen in
		// silence (empty holders never transmit).
		Idle: lay.roster.Idle(),
	}, nil
}

// New builds the k-Subsets system with MBTF inside each thread — maximum
// throughput k(k−1)/(n(n−1)), latency possibly unbounded.
func New(n, k int) (*core.System, error) { return build(n, k, broadcast.MBTF) }

// NewRRW builds the plain-packet RRW variant — bounded latency for rates
// strictly below k(k−1)/(n(n−1)).
func NewRRW(n, k int) (*core.System, error) { return build(n, k, broadcast.RRW) }
