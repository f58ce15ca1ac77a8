// Package ksubsets implements algorithm k-Subsets (paper §6): a
// k-energy-oblivious direct-routing algorithm that is stable at injection
// rate k(k−1)/(n(n−1)) — the maximum any k-oblivious direct algorithm can
// achieve (Theorem 9) — with at most 2·C(n,k)·(n²+β) queued packets
// (Theorem 8).
//
// Fix the lexicographic enumeration A_0, …, A_{γ−1} of all γ = C(n,k)
// k-element subsets of the stations. Rounds i + jγ form thread i; during
// thread i's rounds exactly the stations of A_i are on — a fixed schedule,
// hence oblivious. Each thread runs an independent instance of
// Move-Big-To-Front [17] over its k members, each member keeping a
// broadcast.Replica of it with its queue for the thread. Time is grouped
// into phases of γ rounds; at each phase start a station allocates the
// packets injected during the previous phase to threads: per
// destination w, as balanced as possible (counts differing by at most 1)
// across the C(n−2,k−2) threads containing both endpoints.
//
// With MBTF inside, packets can starve (Table 1: latency ∞); the paper
// notes that substituting Round-Robin-Withholding [18] yields bounded
// latency Θ(γ(n+β)) for rates strictly below critical. NewRRW builds that
// variant, which is moreover plain-packet.
package ksubsets

import (
	"fmt"
	"math/big"
	"slices"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/sched"
)

// MaxThreads caps γ = C(n,k); configurations beyond it are rejected
// (thread state is per-station, so memory grows as n·γ).
const MaxThreads = 1 << 17

// Layout is the static thread structure.
type Layout struct {
	N, K    int
	Gamma   int
	members [][]int  // thread → sorted member stations
	mask    []uint64 // thread → membership bitmask (n ≤ 64)

	threadsOf [][]int32 // station → thread indices containing it
	eligible  [][]int32 // v*n+w → threads containing both v and w
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
	lay := &Layout{
		N: n, K: k, Gamma: gamma,
		members:   make([][]int, 0, gamma),
		mask:      make([]uint64, 0, gamma),
		threadsOf: make([][]int32, n),
		eligible:  make([][]int32, n*n),
	}
	// Lexicographic enumeration.
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		m := make([]int, k)
		copy(m, comb)
		var bits uint64
		for _, s := range m {
			bits |= 1 << uint(s)
		}
		idx := int32(len(lay.members))
		lay.members = append(lay.members, m)
		lay.mask = append(lay.mask, bits)
		for _, s := range m {
			lay.threadsOf[s] = append(lay.threadsOf[s], idx)
		}
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
	if len(lay.members) != gamma {
		panic("ksubsets: enumeration mismatch")
	}
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			var el []int32
			for _, t := range lay.threadsOf[v] {
				if lay.mask[t]&(1<<uint(w)) != 0 {
					el = append(el, t)
				}
			}
			lay.eligible[v*n+w] = el
		}
	}
	return lay, nil
}

// Eligible returns the threads containing both v and w.
func (l *Layout) Eligible(v, w int) []int32 { return l.eligible[v*l.N+w] }

// ActiveThread returns the thread on duty in the given round.
func (l *Layout) ActiveThread(round int64) int32 {
	return int32(round % int64(l.Gamma))
}

// Schedule returns the oblivious on/off schedule (period γ).
func (l *Layout) Schedule() sched.Schedule {
	return sched.Func{
		N: l.N,
		P: int64(l.Gamma),
		F: func(st int, round int64) bool {
			return l.mask[l.ActiveThread(round)]&(1<<uint(st)) != 0
		},
	}
}

type station struct {
	id  int
	lay *Layout

	// The station's thread-local state is laid out densely in membership
	// order (threads = lay.threadsOf[id], sorted ascending). The active
	// thread visits 0..γ−1 in round order, so a cursor into the sorted
	// membership list replaces a per-round map lookup: the station is on
	// duty exactly when the active thread equals threads[cursor].
	threads []int32
	reps    []broadcast.Replica // one MBTF (or RRW) replica per thread membership
	cursor  int

	staging  []mac.Packet // injected this phase, allocated at next boundary
	counters [][]int64    // dest → per-eligible-thread allocation counts, nil before its first packet

	curPhase int64
}

func newStation(id int, lay *Layout, kind broadcast.Kind) *station {
	threads := lay.threadsOf[id]
	s := &station{
		id: id, lay: lay,
		threads:  threads,
		reps:     make([]broadcast.Replica, len(threads)),
		counters: make([][]int64, lay.N),
		curPhase: -1,
	}
	for i, t := range threads {
		s.reps[i] = broadcast.NewReplica(kind, id, lay.members[t], lay.N)
	}
	return s
}

// local returns the membership index of thread t, which must contain
// the station: a binary search of the sorted membership list.
func (s *station) local(t int32) int {
	i, _ := slices.BinarySearch(s.threads, t)
	return i
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
		s.reps[s.local(el[best])].Inject(p)
	}
	s.staging = s.staging[:0]
}

func (s *station) Act(round int64) core.Action {
	phase := round / int64(s.lay.Gamma)
	if phase != s.curPhase {
		s.curPhase = phase
		s.cursor = 0
		s.allocate()
	}
	t := s.lay.ActiveThread(round)
	for s.cursor < len(s.threads) && s.threads[s.cursor] < t {
		s.cursor++
	}
	if s.cursor >= len(s.threads) || s.threads[s.cursor] != t {
		return core.Off()
	}
	return s.reps[s.cursor].Act(round)
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Observe is only called for switched-on rounds, when Act left the
	// cursor on the active thread.
	s.reps[s.cursor].Observe(round, fb)
}

func (s *station) QueueLen() int {
	total := len(s.staging)
	for i := range s.reps {
		total += s.reps[i].QueueLen()
	}
	return total
}

// Quiescent implements mac.Skipper: with nothing staged and every
// thread's replica idle, every on-duty round finds an empty holder — the
// station listens and the only transition is a token pass.
func (s *station) Quiescent() bool {
	if len(s.staging) != 0 {
		return false
	}
	for i := range s.reps {
		if !s.reps[i].Idle() {
			return false
		}
	}
	return true
}

// SkipIdle implements mac.Skipper: each thread's replica saw one
// silence per round its thread was on duty, and curPhase/cursor take
// their exact post-Act(to−1) values. The phase must NOT be left stale:
// a wake-up round injects before it acts, and a stale phase would make
// Act allocate the fresh packet a phase early instead of staging it
// until the next real boundary.
func (s *station) SkipIdle(from, to int64) {
	g := int64(s.lay.Gamma)
	for i, t := range s.threads {
		s.reps[i].SkipIdle(from, to, 1, g, int64(t))
	}
	s.curPhase = (to - 1) / g
	t := int32((to - 1) % g)
	s.cursor = 0
	for s.cursor < len(s.threads) && s.threads[s.cursor] < t {
		s.cursor++
	}
}

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet {
	dst = append(dst, s.staging...)
	for i := range s.reps {
		dst = s.reps[i].AppendHeld(dst)
	}
	return dst
}

func build(n, k int, kind broadcast.Kind) (*core.System, error) {
	lay, err := NewLayout(n, k)
	if err != nil {
		return nil, err
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = newStation(i, lay, kind)
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
		Schedule: lay.Schedule(),
		// Idle rounds: the k members of the active thread listen in
		// silence (empty holders never transmit).
		Idle: core.ConstIdle{Energy: k},
	}, nil
}

// New builds the k-Subsets system with MBTF inside each thread — maximum
// throughput k(k−1)/(n(n−1)), latency possibly unbounded.
func New(n, k int) (*core.System, error) { return build(n, k, broadcast.MBTF) }

// NewRRW builds the plain-packet RRW variant — bounded latency for rates
// strictly below k(k−1)/(n(n−1)).
func NewRRW(n, k int) (*core.System, error) { return build(n, k, broadcast.RRW) }
