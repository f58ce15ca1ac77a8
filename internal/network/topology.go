// Package network generalizes the single multiple access channel of
// internal/core to a *network of channels* — the setting the paper
// frames its routing problem in ("networks modeled as multiple access
// channels") and the one multi-hop adversarial-routing work (Amir, Bunn,
// Ostrovsky; Sheikholeslami et al.) presumes.
//
// A network is a connected graph whose nodes are channels. Every channel
// is an independent contention domain — its own station set, its own
// replica of the routing algorithm, its own core.Sim — and all channels
// advance in lockstep rounds. Adjacent channels are bridged by relays:
// each channel designates, per neighbour, a gateway station; a packet
// delivered to a gateway is moved by the network into the neighbouring
// channel's injection queue, where it arrives at the start of the *next*
// round (one-round relay latency). Relay arrivals therefore never depend
// on the order channels are stepped in, which makes every aggregate
// deterministic and independent of channel iteration order — and of the
// worker count: Network.Run fans a large network's channels out across
// a persistent worker team (sized by stepWorkers) and every observable
// output stays bit-identical to the serial loop (see Network.step and
// DESIGN.md §13).
//
// Stations are addressed globally: channel c owns the contiguous id
// block [c·n, (c+1)·n). The adversary injects (src, dest) pairs in
// global coordinates; the network routes each packet along the unique
// BFS shortest path (lowest-numbered neighbour first) through the
// channel graph, hop by hop, re-addressing it within each channel to
// the gateway toward the next hop — or to its final station on the last
// hop.
package network

import (
	"fmt"
	"slices"

	"earmac/internal/registry"
)

// Topology kinds. A kind names a channel-graph generator; Custom takes
// an explicit edge list instead.
const (
	Line   = "line"   // channels 0—1—2—…—C-1
	Star   = "star"   // channel 0 is the hub, edges 0—i for i ≥ 1
	Clique = "clique" // every pair of channels adjacent
	Grid   = "grid"   // rows×cols mesh, rows = largest divisor of C ≤ √C
	Random = "random" // seeded random spanning tree + extra chords
	Custom = "custom" // explicit edge list over channel indices
)

// Kinds lists the topology kinds, sorted, for capability enumeration.
func Kinds() []string { return []string{Clique, Custom, Grid, Line, Random, Star} }

// Spec describes a network of channels. It is pure data — the façade
// Config carries its fields — and compiles into a Topology.
type Spec struct {
	// Kind is one of Line, Star, Clique, Grid, Random, or Custom.
	Kind string
	// Channels is the number of channels, ≥ 2.
	Channels int
	// N is the number of stations on every channel, ≥ 2.
	N int
	// Links is the explicit channel adjacency for Custom (ignored
	// otherwise): undirected edges as [from, to] channel-index pairs.
	// The resulting graph must be connected, self-loop- and
	// duplicate-free.
	Links [][2]int
	// Seed parameterizes the Random generator (ignored otherwise). The
	// edge set is a pure function of (Seed, Channels), so a recorded
	// run re-compiles to the identical graph.
	Seed int64
}

// Validate checks the spec. Every failure wraps registry.ErrBadTopology.
func (s Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", registry.ErrBadTopology, fmt.Sprintf(format, args...))
	}
	switch s.Kind {
	case Line, Star, Clique, Grid, Random:
		if len(s.Links) > 0 {
			return bad("%s topology takes no explicit links", s.Kind)
		}
	case Custom:
		if len(s.Links) == 0 {
			return bad("custom topology needs explicit links")
		}
	default:
		return bad("unknown kind %q (have %v)", s.Kind, Kinds())
	}
	if s.Channels < 2 {
		return bad("need at least 2 channels, got %d", s.Channels)
	}
	if s.N < 2 {
		return bad("need at least 2 stations per channel, got %d", s.N)
	}
	if s.Kind == Custom {
		seen := make(map[[2]int]bool, len(s.Links))
		for _, l := range s.Links {
			a, b := l[0], l[1]
			if a < 0 || a >= s.Channels || b < 0 || b >= s.Channels {
				return bad("link %v outside [0, %d)", l, s.Channels)
			}
			if a == b {
				return bad("self-loop on channel %d", a)
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				return bad("duplicate link %v", l)
			}
			seen[[2]int{a, b}] = true
		}
	}
	return nil
}

// edges returns the undirected channel-graph edge list the spec
// generates (explicit for Custom). Assumes a validated spec.
func (s Spec) edges() [][2]int {
	switch s.Kind {
	case Line:
		out := make([][2]int, 0, s.Channels-1)
		for c := 1; c < s.Channels; c++ {
			out = append(out, [2]int{c - 1, c})
		}
		return out
	case Star:
		out := make([][2]int, 0, s.Channels-1)
		for c := 1; c < s.Channels; c++ {
			out = append(out, [2]int{0, c})
		}
		return out
	case Clique:
		var out [][2]int
		for a := 0; a < s.Channels; a++ {
			for b := a + 1; b < s.Channels; b++ {
				out = append(out, [2]int{a, b})
			}
		}
		return out
	case Grid:
		rows, cols := gridDims(s.Channels)
		var out [][2]int
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				at := r*cols + c
				if c+1 < cols {
					out = append(out, [2]int{at, at + 1})
				}
				if r+1 < rows {
					out = append(out, [2]int{at, at + cols})
				}
			}
		}
		return out
	case Random:
		return randomEdges(s.Channels, s.Seed)
	default: // Custom
		return s.Links
	}
}

// gridDims factors C into rows×cols with rows the largest divisor of C
// not exceeding √C (so the mesh is as square as C allows; a prime C
// degenerates to a 1×C line, which is still a valid connected grid).
func gridDims(channels int) (rows, cols int) {
	rows = 1
	for d := 2; d*d <= channels; d++ {
		if channels%d == 0 {
			rows = d
		}
	}
	return rows, channels / rows
}

// randomEdges generates a connected random channel graph as a pure
// function of (seed, C): a uniform random spanning tree prefix (channel
// v ≥ 1 attaches to a uniformly drawn channel below it) plus ⌊C/2⌋
// extra chord attempts, deduplicated and self-loop-free. The splitmix64
// stream makes the graph identical across platforms and runs.
func randomEdges(channels int, seed int64) [][2]int {
	state := uint64(seed)*0x9e3779b97f4a7c15 + uint64(channels)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	seen := make(map[[2]int]bool, channels+channels/2)
	out := make([][2]int, 0, channels+channels/2)
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		out = append(out, [2]int{a, b})
	}
	for v := 1; v < channels; v++ {
		add(int(next()%uint64(v)), v)
	}
	for i := 0; i < channels/2; i++ {
		add(int(next()%uint64(channels)), int(next()%uint64(channels)))
	}
	return out
}

// Topology is a compiled Spec: adjacency, shortest-path next hops, and
// gateway assignments, all deterministic functions of the spec.
type Topology struct {
	spec Spec
	// adj[c] is channel c's neighbour list, sorted ascending.
	adj [][]int
	// next[a][b] is the first channel after a on the shortest a→b path
	// (BFS, lowest-numbered neighbour first); next[a][a] = a.
	next [][]int
	// gw[c][d] is the local gateway station of channel c toward
	// neighbour d (the i-th sorted neighbour uses station i mod N), or
	// -1 when c and d are not adjacent. A flat table rather than a map:
	// Gateway sits on the relay hot path, stepped every round by every
	// channel, and is read concurrently by the worker team.
	gw [][]int32
}

// Compile validates a spec and precomputes routing.
func Compile(s Spec) (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	C := s.Channels
	t := &Topology{
		spec: s,
		adj:  make([][]int, C),
		next: make([][]int, C),
		gw:   make([][]int32, C),
	}
	for _, e := range s.edges() {
		t.adj[e[0]] = append(t.adj[e[0]], e[1])
		t.adj[e[1]] = append(t.adj[e[1]], e[0])
	}
	gwFlat := make([]int32, C*C)
	for i := range gwFlat {
		gwFlat[i] = -1
	}
	for c := range t.adj {
		// Edge lists are generated (or validated) duplicate-free; sort
		// ascending so routing ties break toward lower channel ids.
		slices.Sort(t.adj[c])
		t.gw[c] = gwFlat[c*C : (c+1)*C : (c+1)*C]
		for i, d := range t.adj[c] {
			t.gw[c][d] = int32(i % s.N)
		}
	}
	// BFS from every source; parent-first expansion over sorted
	// neighbour lists makes the next-hop matrix deterministic.
	queue := make([]int, 0, C)
	for src := 0; src < C; src++ {
		nh := make([]int, C)
		for i := range nh {
			nh[i] = -1
		}
		nh[src] = src
		queue = queue[:0]
		queue = append(queue, src)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range t.adj[cur] {
				if nh[nb] != -1 {
					continue
				}
				if cur == src {
					nh[nb] = nb // first hop is the neighbour itself
				} else {
					nh[nb] = nh[cur]
				}
				queue = append(queue, nb)
			}
		}
		for d, h := range nh {
			if h == -1 {
				return nil, fmt.Errorf("%w: channel %d unreachable from channel %d",
					registry.ErrBadTopology, d, src)
			}
		}
		t.next[src] = nh
	}
	return t, nil
}

// Channels returns the number of channels.
func (t *Topology) Channels() int { return t.spec.Channels }

// StationsPerChannel returns the per-channel station count.
func (t *Topology) StationsPerChannel() int { return t.spec.N }

// Stations returns the total number of stations across the network.
func (t *Topology) Stations() int { return t.spec.Channels * t.spec.N }

// ChannelOf returns the channel owning global station id g.
func (t *Topology) ChannelOf(g int) int { return g / t.spec.N }

// Local converts a global station id to its channel-local index.
func (t *Topology) Local(g int) int { return g % t.spec.N }

// Global converts (channel, local station) to the global id.
func (t *Topology) Global(ch, local int) int { return ch*t.spec.N + local }

// NextHop returns the channel after `from` on the shortest path to
// `to`; NextHop(c, c) == c.
func (t *Topology) NextHop(from, to int) int { return t.next[from][to] }

// Gateway returns the local station in channel ch that relays traffic
// toward the adjacent channel `toward`. Assignment is deterministic:
// the i-th sorted neighbour uses local station i mod N, so every
// gateway exists for any N ≥ 2 (a channel with more neighbours than
// stations shares gateways). Safe for concurrent readers — the table
// is immutable after Compile.
func (t *Topology) Gateway(ch, toward int) int {
	g := t.gw[ch][toward]
	if g < 0 {
		panic(fmt.Sprintf("network: channels %d and %d are not adjacent", ch, toward))
	}
	return int(g)
}

// Hops returns the shortest-path hop count between two channels.
func (t *Topology) Hops(from, to int) int {
	hops := 0
	for from != to {
		from = t.next[from][to]
		hops++
	}
	return hops
}
