// Package randmac implements a randomized slotted-ALOHA-style baseline
// under the paper's energy cap — NOT an algorithm from the paper, but the
// natural contender its determinism should be measured against (the
// repository's extension ablation; see DESIGN.md §5).
//
// In every round a pseudorandom set of k stations is switched on, drawn
// from a PRG seeded by the round number that is part of the algorithm's
// code — so the schedule is fixed in advance and the algorithm is
// k-energy-oblivious in the paper's sense, like k-Clique. A switched-on
// station holding a packet whose destination is also on transmits it with
// probability 1/k (the classic ALOHA gamble); collisions waste the round
// and everyone retries later. Routing is direct and plain-packet.
//
// Two inefficiencies compound, and the benchmarks quantify both: a given
// (src, dest) pair is co-scheduled only a k(k−1)/(n(n−1)) fraction of
// rounds (the same combinatorial ceiling as Theorem 9, but met here only
// in expectation), and contention loses a further 1/e-style factor to
// collisions — which the paper's deterministic token schedules avoid
// entirely.
//
// A system's stations and schedule share one Layout, which caches the
// round's on-set. The cache needs no lock: every system has its own
// Layout (a network builds one system per channel), and core.Sim steps
// a system's stations and schedule on one goroutine.
package randmac

import (
	"fmt"
	"math/rand"
	"slices"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/pktq"
	"earmac/internal/sched"
)

// period makes the pseudorandom schedule formally periodic (and thus a
// sched.Schedule); it is long enough that no experiment horizon wraps
// meaningfully.
const period = 1 << 14

// splitmix64 is the standard 64-bit mix, used to derive each round's
// on-set deterministically from the shared seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Layout is the shared pseudorandom schedule. It caches the on-set of
// the round last asked for, so a system derives each round's set once
// however many of its stations and schedule queries read it. The cache
// is mutable: a Layout serves one system and is used only on the
// goroutine stepping it. N, K and Seed are fixed by NewLayout.
type Layout struct {
	N, K int
	Seed uint64

	stamp int64 // the round whose on-set on holds
	on    []int // the cached on-set, K entries
	perm  []int // the identity permutation of [0, N) between recomputations
	swaps []int // the partner of each of the K Fisher-Yates swaps, to undo them
}

// NewLayout validates the configuration.
func NewLayout(n, k int, seed uint64) (*Layout, error) {
	if n < 2 {
		return nil, fmt.Errorf("randmac: need n >= 2, got %d", n)
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("randmac: need 2 <= k <= n, got k=%d", k)
	}
	l := &Layout{
		N: n, K: k, Seed: seed,
		on: make([]int, k), perm: make([]int, n), swaps: make([]int, k),
	}
	for i := range l.perm {
		l.perm[i] = i
	}
	l.fill(0)
	return l, nil
}

// OnSet returns a copy of the k stations switched on in the given
// round, identical across all replicas: the first k entries of a seeded
// Fisher-Yates shuffle of [0, n).
func (l *Layout) OnSet(round int64) []int {
	return append([]int(nil), l.onSet(round)...)
}

// onSet returns the given round's on-set from the cache, recomputing it
// only when the round differs from the cached one. The result aliases
// the cache and is valid until the next call for another round.
func (l *Layout) onSet(round int64) []int {
	if round != l.stamp {
		l.fill(round)
	}
	return l.on
}

// fill shuffles the first K positions of the identity permutation for
// the round, copies them out and undoes the swaps in reverse, so the
// round costs O(K) and perm is the identity again for the next one.
func (l *Layout) fill(round int64) {
	state := l.Seed ^ splitmix64(uint64(round%period)+1)
	for i := range l.swaps {
		state = splitmix64(state)
		j := i + int(state%uint64(l.N-i))
		l.swaps[i] = j
		l.perm[i], l.perm[j] = l.perm[j], l.perm[i]
	}
	copy(l.on, l.perm[:l.K])
	for i := l.K - 1; i >= 0; i-- {
		j := l.swaps[i]
		l.perm[i], l.perm[j] = l.perm[j], l.perm[i]
	}
	l.stamp = round
}

// AppendAwake implements core.Awaker: it appends the round's on-set to
// buf and sorts the appended entries there, leaving the cache (which
// OnSet returns in shuffle order) as it is.
func (l *Layout) AppendAwake(round int64, buf []int) []int {
	n := len(buf)
	buf = append(buf, l.onSet(round)...)
	slices.Sort(buf[n:])
	return buf
}

// Schedule returns the oblivious on/off schedule. It reads the Layout's
// cache, so it is queried on the goroutine that steps the system.
func (l *Layout) Schedule() sched.Schedule {
	return sched.Func{
		N: l.N,
		P: period,
		F: func(st int, round int64) bool {
			for _, s := range l.onSet(round) {
				if s == st {
					return true
				}
			}
			return false
		},
	}
}

type station struct {
	id   int
	lay  *Layout
	q    *pktq.Queue
	seed int64
	rng  *rand.Rand // seeded from seed at the first gamble; most stations of a sparse run never gamble

	pendingTx int64
}

func (s *station) Inject(p mac.Packet) { s.q.Push(p) }

func (s *station) Act(round int64) core.Action {
	s.pendingTx = -1
	onSet := s.lay.onSet(round)
	myTurn := false
	for _, st := range onSet {
		if st == s.id {
			myTurn = true
			break
		}
	}
	if !myTurn {
		return core.Off()
	}
	// Oldest packet whose destination is switched on right now (packet
	// IDs increase with injection order).
	var best mac.Packet
	found := false
	for _, d := range onSet {
		if p, ok := s.q.FrontTo(d); ok && (!found || p.ID < best.ID) {
			best, found = p, true
		}
	}
	if !found {
		return core.Listen()
	}
	// The ALOHA gamble: transmit with probability 1/k. The stream
	// depends only on the seed and the number of draws, so building the
	// generator late changes no output.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	if s.rng.Intn(s.lay.K) != 0 {
		return core.Listen()
	}
	s.pendingTx = best.ID
	return core.Transmit(mac.PacketMsg(best))
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	if fb.Kind == mac.FbHeard && s.pendingTx >= 0 {
		s.q.Remove(s.pendingTx)
	}
	// On a collision the packet stays queued and will be retried.
	s.pendingTx = -1
}

func (s *station) QueueLen() int { return s.q.Len() }

func (s *station) AppendHeld(dst []mac.Packet) []mac.Packet { return s.q.AppendTo(dst) }

// Quiescent implements mac.Skipper: an empty station neither draws
// randomness nor transmits — a switched-on idle round scans the
// on-set, finds no packet, and listens, leaving no state behind (the
// ALOHA gamble runs only when a sendable packet exists, so the RNG
// stream is untouched by idle rounds).
func (s *station) Quiescent() bool { return s.q.Len() == 0 && s.pendingTx < 0 }

// SkipIdle implements mac.Skipper: idle rounds are stateless, and they
// never consult channel feedback (the system declares FeedbackFreeIdle,
// so the duty-cycle wrapper may fast-forward sleeping stations too).
func (s *station) SkipIdle(from, to int64) {}

// New builds the randomized baseline for n stations under energy cap k.
func New(n, k int) (*core.System, error) {
	return NewSeeded(n, k, 0x6ea7_c0de)
}

// NewSeeded builds the baseline with an explicit schedule seed.
func NewSeeded(n, k int, seed uint64) (*core.System, error) {
	lay, err := NewLayout(n, k, seed)
	if err != nil {
		return nil, err
	}
	stations := make([]core.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = &station{
			id:        i,
			lay:       lay,
			q:         pktq.New(n),
			seed:      int64(seed) + int64(i)*7919,
			pendingTx: -1,
		}
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name:        fmt.Sprintf("%d-aloha", k),
			EnergyCap:   k,
			PlainPacket: true,
			Direct:      true,
			Oblivious:   true,
		},
		Stations: stations,
		Schedule: lay.Schedule(),
		// Idle rounds: the k scheduled stations listen in silence.
		Idle:             core.ConstIdle{Energy: k},
		FeedbackFreeIdle: true,
		// An Off round only resets pendingTx, which is already -1 after
		// every round, so it leaves no state behind.
		Awake: lay,
	}, nil
}
