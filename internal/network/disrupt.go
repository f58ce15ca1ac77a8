package network

// Disruption sources: a budgeted jamming adversary choosing
// (round, channel) pairs to jam, and validated per-channel outage
// schedules. Both feed Network.step's phase 1, which translates them
// into per-channel core.Disrupt flags for the round — a disrupted round
// delivers nothing and reads as a collision (see core.Disruption)
// — and, for outages, parks incoming relay hand-offs until the channel
// comes back.

import (
	"fmt"
	"math"
	"sort"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/scenario"
)

// Disruptor supplies the channels jammed in each round. AppendJams is
// called serially (from step's phase 1, before any channel is
// dispatched) with rounds strictly increasing, once for every round the
// network executes; it must append the jammed channel indices in
// ascending order and reuse buf — the steady-state round loop is
// allocation-free. Rounds a span skips are not consulted: the span ends
// at or before NextJamRound(from), the earliest round >= from that may
// jam (-1: none remains), so every skipped round jams nothing, and a
// Disruptor with per-round state catches it up at the next AppendJams.
type Disruptor interface {
	AppendJams(round int64, buf []int) []int
	NextJamRound(from int64) int64
}

// jamSeedMix decorrelates the jammer's channel choices from the
// injection patterns, which are seeded from the same user seed.
const jamSeedMix = 0x6a61_6d5f_6561_72 // "jam_ear"

// Jammer is the budgeted jamming adversary: a separate (ρ_j, β_j)
// leaky bucket, spent one unit per jammed (round, channel). Each round
// it greedily spends as much budget as it can — min(budget, channels)
// distinct channels, drawn by a seeded partial shuffle — so intensity
// is governed purely by the type: ρ_j = 1/8 on one channel jams every
// 8th round. Fully deterministic in (type, channels, seed).
type Jammer struct {
	bucket   *adversary.Bucket
	state    uint64
	channels int
	perm     []int
	next     int64 // the round AppendJams expects next
}

// NewJammer builds a jamming adversary over the given channel count.
func NewJammer(typ adversary.Type, channels int, seed int64) *Jammer {
	if channels < 1 {
		panic("network: jammer needs at least one channel")
	}
	return &Jammer{
		bucket:   adversary.NewBucket(typ),
		state:    uint64(seed) ^ jamSeedMix,
		channels: channels,
		perm:     make([]int, channels),
	}
}

// splitmix is the standard 64-bit mix (private copy; randmac keeps its
// own for the same reason: the constant is part of the algorithm).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AppendJams implements Disruptor. Rounds skipped since the last call
// jammed nothing, so they only refill the bucket.
func (j *Jammer) AppendJams(round int64, buf []int) []int {
	j.bucket.SkipRounds(round - j.next)
	j.next = round + 1
	k := j.bucket.Tick()
	if k > j.channels {
		k = j.channels
	}
	j.bucket.Spend(k)
	if k == 0 {
		return buf
	}
	if k == j.channels {
		for c := 0; c < j.channels; c++ {
			buf = append(buf, c)
		}
		return buf
	}
	// Partial Fisher-Yates over the persistent scratch, then an
	// insertion sort of the k chosen channels (k is tiny).
	for i := range j.perm {
		j.perm[i] = i
	}
	for i := 0; i < k; i++ {
		j.state = splitmix(j.state)
		o := i + int(j.state%uint64(j.channels-i))
		j.perm[i], j.perm[o] = j.perm[o], j.perm[i]
	}
	start := len(buf)
	buf = append(buf, j.perm[:k]...)
	chosen := buf[start:]
	for i := 1; i < len(chosen); i++ {
		for o := i; o > 0 && chosen[o] < chosen[o-1]; o-- {
			chosen[o], chosen[o-1] = chosen[o-1], chosen[o]
		}
	}
	return buf
}

// NextJamRound implements Disruptor: the round the bucket next affords
// a jam, counted from the round AppendJams expects next (from never
// precedes it, and rounds up to the result jam nothing), or -1.
func (j *Jammer) NextJamRound(from int64) int64 {
	w := j.bucket.RoundsToCredit()
	if w < 0 {
		return -1
	}
	return j.next + w
}

// JamReplay re-executes the jam stream of a recorded trace-v3 run: the
// recorded jam events, consumed in (round, channel) order. Like the
// entry-stream replayers it applies no bucket — the recording already
// proved the jam stream affordable (CheckJamAdmissible).
type JamReplay struct {
	events []scenario.Event
	cur    int
}

// NewJamReplay extracts a trace's jam events. It returns nil when the
// trace has none, so callers can gate on the result.
func NewJamReplay(t *scenario.Trace) *JamReplay {
	var r *JamReplay
	for _, ev := range t.Events {
		if ev.Kind == scenario.KindJam {
			if r == nil {
				r = &JamReplay{}
			}
			r.events = append(r.events, ev)
		}
	}
	return r
}

// AppendJams implements Disruptor.
func (r *JamReplay) AppendJams(round int64, buf []int) []int {
	for r.cur < len(r.events) && r.events[r.cur].Round < round {
		r.cur++ // skipped by the driver
	}
	for r.cur < len(r.events) && r.events[r.cur].Round == round {
		buf = append(buf, r.events[r.cur].Channel)
		r.cur++
	}
	return buf
}

// NextJamRound implements Disruptor: the first recorded jam at round
// >= from, or -1. Read-only — the cursor is left for AppendJams.
func (r *JamReplay) NextJamRound(from int64) int64 {
	for i := r.cur; i < len(r.events); i++ {
		if r.events[i].Round >= from {
			return r.events[i].Round
		}
	}
	return -1
}

// Outage is one channel-dead window: channel Channel delivers nothing
// during rounds [From, From+Rounds), and relay hand-offs destined for
// it queue at the network layer until the window ends.
type Outage struct {
	Channel int   `json:"channel"`
	From    int64 `json:"from"`
	Rounds  int64 `json:"rounds"`
}

// OutageSchedule is a validated set of outage windows, queried once per
// (channel, round) with rounds nondecreasing (one cursor per channel —
// a schedule is good for a single forward pass; build a fresh one per
// run).
type OutageSchedule struct {
	byCh [][]Outage
	cur  []int
}

// NewOutageSchedule validates and indexes outage windows for a network
// of the given channel count: every window must name a valid channel,
// start at round ≥ 0, last ≥ 1 round, end within int64 (From+Rounds
// must not overflow), and windows on the same channel must not
// overlap. An empty window set returns (nil, nil).
func NewOutageSchedule(outs []Outage, channels int) (*OutageSchedule, error) {
	if len(outs) == 0 {
		return nil, nil
	}
	s := &OutageSchedule{
		byCh: make([][]Outage, channels),
		cur:  make([]int, channels),
	}
	for _, o := range outs {
		if o.Channel < 0 || o.Channel >= channels {
			return nil, fmt.Errorf("network: outage on channel %d, have %d channels", o.Channel, channels)
		}
		if o.From < 0 {
			return nil, fmt.Errorf("network: outage on channel %d starts at negative round %d", o.Channel, o.From)
		}
		if o.Rounds < 1 {
			return nil, fmt.Errorf("network: outage on channel %d lasts %d rounds, need >= 1", o.Channel, o.Rounds)
		}
		if o.Rounds > math.MaxInt64-o.From {
			return nil, fmt.Errorf("network: outage on channel %d from round %d lasting %d rounds ends past round %d",
				o.Channel, o.From, o.Rounds, int64(math.MaxInt64))
		}
		s.byCh[o.Channel] = append(s.byCh[o.Channel], o)
	}
	for c, wins := range s.byCh {
		sort.Slice(wins, func(i, o int) bool { return wins[i].From < wins[o].From })
		for i := 1; i < len(wins); i++ {
			if wins[i].From < wins[i-1].From+wins[i-1].Rounds {
				return nil, fmt.Errorf("network: overlapping outage windows on channel %d: [%d,%d) and [%d,%d)",
					c, wins[i-1].From, wins[i-1].From+wins[i-1].Rounds, wins[i].From, wins[i].From+wins[i].Rounds)
			}
		}
	}
	return s, nil
}

// Active reports whether channel ch is dead in the given round, whether
// this round opens a window (for event emission), and the window's
// length when it does.
func (s *OutageSchedule) Active(ch int, round int64) (active, starts bool, dur int64) {
	wins := s.byCh[ch]
	i := s.cur[ch]
	for i < len(wins) && round >= wins[i].From+wins[i].Rounds {
		i++
	}
	s.cur[ch] = i
	if i >= len(wins) || round < wins[i].From {
		return false, false, 0
	}
	return true, round == wins[i].From, wins[i].Rounds
}

// NextDisrupted returns the earliest round >= from at which channel ch
// is inside an outage window, or -1 when none remains. Read-only: the
// forward cursor is left for Active to advance.
func (s *OutageSchedule) NextDisrupted(ch int, from int64) int64 {
	wins := s.byCh[ch]
	for i := s.cur[ch]; i < len(wins); i++ {
		if from < wins[i].From {
			return wins[i].From
		}
		if from < wins[i].From+wins[i].Rounds {
			return from
		}
	}
	return -1
}

// EventSink receives what Step emits after its barrier, in ascending
// channel order within each round and, within one channel, in the order
// entry injections < jam < outage < sleep — the trace recording hook
// (scenario.Encoder implements it). ChannelRound gets the channel's
// adversarial entry injections in global coordinates, only on rounds
// that have some; the slice is reused and must not be retained. An
// outage event fires once per window, on its first round, carrying the
// window length; a sleep event fires on each transition of the
// channel's asleep-station count.
type EventSink interface {
	ChannelRound(round int64, ch int, injs []core.Injection)
	Jam(round int64, ch int)
	Outage(round int64, ch int, rounds int64)
	Sleep(round int64, ch int, asleep int)
}
