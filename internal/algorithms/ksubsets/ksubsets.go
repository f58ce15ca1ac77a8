// Package ksubsets implements algorithm k-Subsets (paper §6): a
// k-energy-oblivious direct-routing algorithm that is stable at injection
// rate k(k−1)/(n(n−1)) — the maximum any k-oblivious direct algorithm can
// achieve (Theorem 9) — with at most 2·C(n,k)·(n²+β) queued packets
// (Theorem 8).
//
// Fix the lexicographic enumeration A_0, …, A_{γ−1} of all γ = C(n,k)
// k-element subsets of the stations. Rounds i + jγ form thread i; during
// thread i's rounds exactly the stations of A_i are on — a fixed schedule,
// hence oblivious. Each thread runs an independent replica-consistent
// instance of Move-Big-To-Front [17] over its k members with per-thread
// queues. Time is grouped into phases of γ rounds; at each phase start a
// station allocates the packets injected during the previous phase to
// threads: per destination w, as balanced as possible (counts differing
// by at most 1) across the C(n−2,k−2) threads containing both endpoints.
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
	"earmac/internal/pktq"
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

// threadEngine abstracts the per-thread token machinery so the MBTF and
// RRW variants share the station logic.
type threadEngine interface {
	Holder() int
	ObserveHeard(ctrl mac.Control)
	ObserveSilence()
	// BigBit returns the control bits to attach given the holder's queue
	// length, or nil for the plain-packet variant.
	BigBit(queueLen int) mac.Control
	// SkipSilences batch-applies m ObserveSilence transitions — the
	// quiescence engine's closed form for idle stretches, where every
	// holder is empty and every thread round is silent.
	SkipSilences(m int64)
}

// mbtfEngine reuses one control buffer across rounds: receivers read the
// big bit synchronously from the feedback and never retain it (see
// DESIGN.md on pooling invariants).
type mbtfEngine struct {
	m    *broadcast.MBTF
	ctrl mac.Control
}

func newMBTFEngine(members []int) *mbtfEngine {
	return &mbtfEngine{m: broadcast.NewMBTF(members), ctrl: mac.MakeControl(1)}
}

func (e *mbtfEngine) Holder() int                   { return e.m.Holder() }
func (e *mbtfEngine) ObserveHeard(ctrl mac.Control) { e.m.ObserveHeard(ctrl.Bit(0)) }
func (e *mbtfEngine) ObserveSilence()               { e.m.ObserveSilence() }
func (e *mbtfEngine) BigBit(queueLen int) mac.Control {
	e.ctrl.SetBit(0, queueLen >= e.m.Threshold())
	return e.ctrl
}
func (e *mbtfEngine) SkipSilences(m int64) { e.m.SkipSilences(m) }

type rrwEngine struct{ r *broadcast.Ring }

func (e rrwEngine) Holder() int              { return e.r.Holder() }
func (e rrwEngine) ObserveHeard(mac.Control) { e.r.ObserveHeard() }
func (e rrwEngine) ObserveSilence()          { e.r.ObserveSilence() }
func (e rrwEngine) BigBit(int) mac.Control   { return nil }
func (e rrwEngine) SkipSilences(m int64)     { e.r.SkipSilences(m) }

type station struct {
	id  int
	lay *Layout

	// The station's thread-local state is laid out densely in membership
	// order (threads = lay.threadsOf[id], sorted ascending). The active
	// thread visits 0..γ−1 in round order, so a cursor into the sorted
	// membership list replaces a per-round map lookup: the station is on
	// duty exactly when the active thread equals threads[cursor].
	threads []int32
	engines []threadEngine
	queues  []*pktq.Queue
	cursor  int

	staging  []mac.Packet // injected this phase, allocated at next boundary
	counters [][]int64    // dest → per-eligible-thread allocation counts, nil before its first packet

	curPhase  int64
	pendingTx int64
}

func newStation(id int, lay *Layout, rrw bool) *station {
	threads := lay.threadsOf[id]
	s := &station{
		id: id, lay: lay,
		threads:   threads,
		engines:   make([]threadEngine, len(threads)),
		queues:    make([]*pktq.Queue, len(threads)),
		counters:  make([][]int64, lay.N),
		curPhase:  -1,
		pendingTx: -1,
	}
	for i, t := range threads {
		if rrw {
			s.engines[i] = rrwEngine{broadcast.NewRing(lay.members[t])}
		} else {
			s.engines[i] = newMBTFEngine(lay.members[t])
		}
		s.queues[i] = pktq.New(lay.N)
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
		s.queues[s.local(el[best])].Push(p)
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
	s.pendingTx = -1
	t := s.lay.ActiveThread(round)
	for s.cursor < len(s.threads) && s.threads[s.cursor] < t {
		s.cursor++
	}
	if s.cursor >= len(s.threads) || s.threads[s.cursor] != t {
		return core.Off()
	}
	eng := s.engines[s.cursor]
	if eng.Holder() != s.id {
		return core.Listen()
	}
	q := s.queues[s.cursor]
	front, ok := q.Front()
	if !ok {
		return core.Listen()
	}
	s.pendingTx = front.ID
	return core.Transmit(mac.Message{HasPacket: true, Packet: front, Ctrl: eng.BigBit(q.Len())})
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	// Observe is only called for switched-on rounds, when Act left the
	// cursor on the active thread.
	eng := s.engines[s.cursor]
	switch fb.Kind {
	case mac.FbHeard:
		if s.pendingTx >= 0 {
			s.queues[s.cursor].Remove(s.pendingTx)
			s.pendingTx = -1
		}
		eng.ObserveHeard(fb.Msg.Ctrl)
	case mac.FbSilence:
		eng.ObserveSilence()
	}
}

func (s *station) QueueLen() int {
	total := len(s.staging)
	for _, q := range s.queues {
		total += q.Len()
	}
	return total
}

// Quiescent implements mac.Skipper: with nothing staged or queued, every
// on-duty round finds an empty holder — the station listens and the only
// engine transition is ObserveSilence.
func (s *station) Quiescent() bool {
	if len(s.staging) != 0 || s.pendingTx >= 0 {
		return false
	}
	for _, q := range s.queues {
		if q.Len() != 0 {
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

// SkipIdle implements mac.Skipper: each membership's engine saw one
// silence per round its thread was on duty, and curPhase/cursor take
// their exact post-Act(to−1) values. The phase must NOT be left stale:
// a wake-up round injects before it acts, and a stale phase would make
// Act allocate the fresh packet a phase early instead of staging it
// until the next real boundary.
func (s *station) SkipIdle(from, to int64) {
	g := int64(s.lay.Gamma)
	for i, t := range s.threads {
		if m := countCongruent(from, to, g, int64(t)); m > 0 {
			s.engines[i].SkipSilences(m)
		}
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
	for _, q := range s.queues {
		dst = q.AppendTo(dst)
	}
	return dst
}

func build(n, k int, rrw bool) (*core.System, error) {
	lay, err := NewLayout(n, k)
	if err != nil {
		return nil, err
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = newStation(i, lay, rrw)
	}
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
func New(n, k int) (*core.System, error) { return build(n, k, false) }

// NewRRW builds the plain-packet RRW variant — bounded latency for rates
// strictly below k(k−1)/(n(n−1)).
func NewRRW(n, k int) (*core.System, error) { return build(n, k, true) }
