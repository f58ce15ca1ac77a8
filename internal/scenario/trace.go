package scenario

// The trace format: a versioned, schema-stable JSONL encoding of one
// run's injection stream, sufficient to re-execute the run bit-for-bit
// (every algorithm in the repository is deterministic given its
// injections, and randomized patterns are seeded).
//
// Layout, one JSON object per line:
//
//	{"earmac_trace":3,"n":6,"rounds":2000,"config":{...}}   header
//	{"r":17,"i":[[0,3],[2,5]]}                              one event per
//	{"r":19,"i":[[4,1]]}                                    injecting round
//	{"final":{"injected":123,"counters":{...}}}             footer
//
// A network of channels (internal/network) adds the channel count to
// the header; station coordinates are global, and each event names the
// entry channel it belongs to (omitted when 0), so one round may carry
// one event per injecting channel:
//
//	{"earmac_trace":3,"n":5,"rounds":3000,"channels":3,"config":{...}}
//	{"r":17,"i":[[0,11]]}                                   channel 0
//	{"r":17,"c":2,"i":[[12,3],[14,1]]}                      channel 2
//	{"final":{"injected":123,"counters":{...}}}
//
// A disrupted or duty-cycled run adds kinded event lines ("k") that
// carry no injections — "jam" (the jamming adversary spent a unit on
// this round and channel), "out" (an outage window opens here; "d" is
// its length in rounds), or "sleep" (the channel's count of
// duty-suppressed stations changed to "z"). Within one (round,
// channel) the injection event precedes any kinded events, and kinds
// order jam < out < sleep:
//
//	{"r":17,"i":[[0,3]]}
//	{"r":17,"k":"jam"}
//	{"r":40,"k":"out","d":100}
//	{"r":52,"k":"sleep","z":2}
//
// Versioning rules: the "earmac_trace" field doubles as the format
// version. Every writer emits TraceVersion; readers also accept the two
// older versions, which recorded single-channel runs (1) and networks
// without disruption (2). Decoders reject any version they do not know,
// and newer constructs inside an older version (a channel id in
// version 1, an event kind in versions 1 and 2). Within a version,
// unknown fields are ignored on read and never emitted on write, so
// fields may be *added* by bumping the version while old decoders fail
// loudly instead of misreading. Events are strictly increasing by
// (round, channel, kind), and a non-zero channel needs a header that
// declares channels; the footer, when present, is the last line and
// pins the run's final flat counters so replays can be checked
// bit-identical.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/registry"
)

// TraceVersion is the format version every writer emits. ReadTrace
// also accepts TraceVersionMulti (channel ids, no event kinds) and
// TraceVersionLegacy (single-channel only), the versions older
// recordings declare.
const (
	TraceVersion       = 3
	TraceVersionMulti  = 2
	TraceVersionLegacy = 1
)

// Event kinds (trace v3). The empty kind marks an ordinary injection
// event; within one (round, channel) the order is "" < jam < out <
// sleep, matching emission order.
const (
	KindJam    = "jam"
	KindOutage = "out"
	KindSleep  = "sleep"
)

// kindRank orders event kinds within one (round, channel); -1 marks an
// unknown kind.
func kindRank(kind string) int {
	switch kind {
	case "":
		return 0
	case KindJam:
		return 1
	case KindOutage:
		return 2
	case KindSleep:
		return 3
	}
	return -1
}

// Header is the first line of a trace.
type Header struct {
	// Version is the trace format version (the "earmac_trace" field).
	Version int `json:"earmac_trace"`
	// N is the system size the trace was recorded against: stations per
	// channel (the whole system, when single-channel).
	N int `json:"n"`
	// Rounds is the recorded horizon.
	Rounds int64 `json:"rounds"`
	// Channels is the channel count of a network recording; 0 marks a
	// single-channel trace, whose events all belong to channel 0.
	Channels int `json:"channels,omitempty"`
	// Config is the recording façade Config, verbatim; its schema is
	// owned by the caller (package earmac), so this package stays
	// independent of the façade.
	Config json.RawMessage `json:"config,omitempty"`
}

// Event is one channel's injections for one round, as [station, dest]
// pairs — global station ids in a network trace, plain ids otherwise.
// Channel is always 0 in a single-channel trace. A non-empty Kind
// marks a jam/outage/sleep event instead: Injs is nil, Dur carries an
// outage window's length, and Asleep a sleep transition's new count.
type Event struct {
	Round   int64    `json:"r"`
	Channel int      `json:"c,omitempty"`
	Injs    [][2]int `json:"i"`
	Kind    string   `json:"k,omitempty"`
	Dur     int64    `json:"d,omitempty"`
	Asleep  int      `json:"z,omitempty"`
}

// Footer pins the totals of the recorded run.
type Footer struct {
	// Injected is the total number of recorded injections.
	Injected int64 `json:"injected"`
	// Counters is the run's final flat counter block; replaying the
	// trace must reproduce it bit-identically on either simulator path.
	Counters *metrics.Counters `json:"counters,omitempty"`
}

// Trace is a fully-decoded trace. Footer is nil when the recording was
// cut short before the footer was written.
type Trace struct {
	Header Header
	Events []Event
	Footer *Footer
}

// footerLine is the wire shape of the footer line.
type footerLine struct {
	Final *Footer `json:"final"`
}

// Encoder streams a trace to a writer: header at construction, one
// event line per injecting round or disruption event, footer at Close.
// Errors are sticky and surfaced by Close.
type Encoder struct {
	bw       *bufio.Writer
	scratch  []byte
	injected int64
	err      error
}

// NewEncoder writes the header line, at TraceVersion whatever
// h.Version says, and returns a streaming encoder.
func NewEncoder(w io.Writer, h Header) *Encoder {
	e := &Encoder{bw: bufio.NewWriter(w)}
	h.Version = TraceVersion
	line, err := json.Marshal(h)
	if err != nil {
		e.err = fmt.Errorf("scenario: encoding trace header: %w", err)
		return e
	}
	e.writeLine(line)
	return e
}

func (e *Encoder) writeLine(line []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.bw.Write(line); err != nil {
		e.err = err
		return
	}
	if err := e.bw.WriteByte('\n'); err != nil {
		e.err = err
	}
}

// appendEventLine serializes one event line {"r":..,"c":..,"i":[[s,d],...]}
// into b ("c" omitted for channel 0); pair yields the i-th [station,
// dest]. The single serializer keeps live recordings (Encoder.Round,
// Encoder.ChannelRound) and re-encodings (Write) byte-identical by
// construction.
func appendEventLine(b []byte, round int64, ch, n int, pair func(int) (int, int)) []byte {
	b = append(b, `{"r":`...)
	b = strconv.AppendInt(b, round, 10)
	if ch != 0 {
		b = append(b, `,"c":`...)
		b = strconv.AppendInt(b, int64(ch), 10)
	}
	b = append(b, `,"i":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		s, d := pair(i)
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// appendKindLine serializes one kinded event line:
// {"r":..,"c":..,"k":"..."} plus "d" for outage windows and "z" for
// sleep transitions ("z" is emitted even at 0 — everyone back awake is
// a transition worth recording). Like appendEventLine it is the single
// serializer for both live recordings and re-encodings.
func appendKindLine(b []byte, round int64, ch int, kind string, dur int64, asleep int) []byte {
	b = append(b, `{"r":`...)
	b = strconv.AppendInt(b, round, 10)
	if ch != 0 {
		b = append(b, `,"c":`...)
		b = strconv.AppendInt(b, int64(ch), 10)
	}
	b = append(b, `,"k":"`...)
	b = append(b, kind...)
	b = append(b, '"')
	if kind == KindOutage {
		b = append(b, `,"d":`...)
		b = strconv.AppendInt(b, dur, 10)
	}
	if kind == KindSleep {
		b = append(b, `,"z":`...)
		b = strconv.AppendInt(b, int64(asleep), 10)
	}
	return append(b, '}')
}

// Round records one round's injections. Rounds with no injections cost
// nothing and leave no line. The injections slice may be reused by the
// caller; Round has the signature of core.Options.InjectionObserver.
func (e *Encoder) Round(round int64, injs []core.Injection) {
	e.ChannelRound(round, 0, injs)
}

// ChannelRound records one channel's injections for one round (global
// station coordinates). With Jam, Outage and Sleep it implements the
// network's EventSink recording hook; callers must supply events in
// increasing (round, channel) order, as a network round's fold does.
func (e *Encoder) ChannelRound(round int64, ch int, injs []core.Injection) {
	if e.err != nil || len(injs) == 0 {
		return
	}
	e.scratch = appendEventLine(e.scratch[:0], round, ch, len(injs), func(i int) (int, int) {
		return injs[i].Station, injs[i].Dest
	})
	e.writeLine(e.scratch)
	e.injected += int64(len(injs))
}

// kindLine writes one kinded event line.
func (e *Encoder) kindLine(round int64, ch int, kind string, dur int64, asleep int) {
	e.scratch = appendKindLine(e.scratch[:0], round, ch, kind, dur, asleep)
	e.writeLine(e.scratch)
}

// Jam records a jammed (round, channel). Callers must emit within one
// (round, channel) in the order injections < jam < outage < sleep, as
// a network round's fold and the façade's single-channel hooks do by
// construction.
func (e *Encoder) Jam(round int64, ch int) { e.kindLine(round, ch, KindJam, 0, 0) }

// Outage records an outage window opening at round on ch, lasting the
// given number of rounds.
func (e *Encoder) Outage(round int64, ch int, rounds int64) {
	e.kindLine(round, ch, KindOutage, rounds, 0)
}

// Sleep records a transition of ch's duty-suppressed station count.
func (e *Encoder) Sleep(round int64, ch int, asleep int) {
	e.kindLine(round, ch, KindSleep, 0, asleep)
}

// Close writes the footer (with the run's final counters, which may be
// nil) and flushes. It returns the first error the encoder hit.
func (e *Encoder) Close(c *metrics.Counters) error {
	return e.finish(&Footer{Injected: e.injected, Counters: c})
}

// finish writes the footer line, unless f is nil, and flushes.
func (e *Encoder) finish(f *Footer) error {
	if f != nil && e.err == nil {
		line, err := json.Marshal(footerLine{Final: f})
		if err != nil {
			e.err = fmt.Errorf("scenario: encoding trace footer: %w", err)
		} else {
			e.writeLine(line)
		}
	}
	if ferr := e.bw.Flush(); e.err == nil && ferr != nil {
		e.err = ferr
	}
	return e.err
}

// Write re-encodes a decoded trace through the recording encoder: the
// header at TraceVersion, then the events and the footer as they are.
// For any t ReadTrace returns, ReadTrace(Write(t)) is t with
// Header.Version = TraceVersion, and Write(ReadTrace(Write(t))) repeats
// Write(t) byte for byte.
func Write(w io.Writer, t *Trace) error {
	e := NewEncoder(w, t.Header)
	for _, ev := range t.Events {
		if ev.Kind != "" {
			e.kindLine(ev.Round, ev.Channel, ev.Kind, ev.Dur, ev.Asleep)
			continue
		}
		injs := ev.Injs
		e.scratch = appendEventLine(e.scratch[:0], ev.Round, ev.Channel, len(injs), func(i int) (int, int) {
			return injs[i][0], injs[i][1]
		})
		e.writeLine(e.scratch)
	}
	return e.finish(t.Footer)
}

// probeLine distinguishes event and footer lines by field presence.
type probeLine struct {
	Round   *int64   `json:"r"`
	Channel *int     `json:"c"`
	Injs    [][2]int `json:"i"`
	Kind    *string  `json:"k"`
	Dur     *int64   `json:"d"`
	Asleep  *int     `json:"z"`
	Final   *Footer  `json:"final"`
}

// ReadTrace decodes a whole trace. It fails loudly — wrapping
// registry.ErrBadTrace — on an unknown version, a malformed line,
// non-increasing event rounds, or content after the footer; it never
// panics on malformed input.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	sawHeader := false
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("scenario: %w: reading line %d: %v", registry.ErrBadTrace, lineNo+1, err)
		}
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if err == io.EOF {
				break
			}
			continue
		}
		switch {
		case !sawHeader:
			if uerr := json.Unmarshal(line, &t.Header); uerr != nil {
				return nil, fmt.Errorf("scenario: %w: header: %v", registry.ErrBadTrace, uerr)
			}
			if t.Header.Version < TraceVersionLegacy || t.Header.Version > TraceVersion {
				return nil, fmt.Errorf("scenario: %w: unsupported trace version %d (this build reads %d through %d)",
					registry.ErrBadTrace, t.Header.Version, TraceVersionLegacy, TraceVersion)
			}
			// Normalize the raw config to json.Marshal's form (compact,
			// HTML-escaped) so decode ∘ encode is the identity: Write
			// re-marshals the header, which would otherwise reformat a
			// hand-edited config.
			if len(t.Header.Config) > 0 {
				norm, nerr := json.Marshal(t.Header.Config)
				if nerr != nil {
					return nil, fmt.Errorf("scenario: %w: header config: %v", registry.ErrBadTrace, nerr)
				}
				t.Header.Config = norm
			}
			sawHeader = true
		case t.Footer != nil:
			return nil, fmt.Errorf("scenario: %w: line %d after footer", registry.ErrBadTrace, lineNo)
		default:
			var p probeLine
			if uerr := json.Unmarshal(line, &p); uerr != nil {
				return nil, fmt.Errorf("scenario: %w: line %d: %v", registry.ErrBadTrace, lineNo, uerr)
			}
			switch {
			case p.Final != nil:
				t.Footer = p.Final
			case p.Round != nil:
				if *p.Round < 0 {
					return nil, fmt.Errorf("scenario: %w: line %d: negative round %d", registry.ErrBadTrace, lineNo, *p.Round)
				}
				ch := 0
				if p.Channel != nil {
					if t.Header.Version == TraceVersionLegacy {
						return nil, fmt.Errorf("scenario: %w: line %d: channel id in a version 1 trace",
							registry.ErrBadTrace, lineNo)
					}
					ch = *p.Channel
					switch {
					case ch < 0:
						return nil, fmt.Errorf("scenario: %w: line %d: negative channel %d", registry.ErrBadTrace, lineNo, ch)
					case ch > 0 && t.Header.Channels == 0:
						return nil, fmt.Errorf("scenario: %w: line %d: channel %d in a trace whose header declares no channels",
							registry.ErrBadTrace, lineNo, ch)
					case t.Header.Channels > 0 && ch >= t.Header.Channels:
						return nil, fmt.Errorf("scenario: %w: line %d: channel %d outside [0, %d)",
							registry.ErrBadTrace, lineNo, ch, t.Header.Channels)
					}
				}
				ev := Event{Round: *p.Round, Channel: ch}
				if p.Kind != nil {
					if t.Header.Version < TraceVersion {
						return nil, fmt.Errorf("scenario: %w: line %d: event kind in a version %d trace (needs version %d)",
							registry.ErrBadTrace, lineNo, t.Header.Version, TraceVersion)
					}
					ev.Kind = *p.Kind
					if kindRank(ev.Kind) <= 0 {
						return nil, fmt.Errorf("scenario: %w: line %d: unknown event kind %q",
							registry.ErrBadTrace, lineNo, ev.Kind)
					}
					if len(p.Injs) > 0 {
						return nil, fmt.Errorf("scenario: %w: line %d: %q event carries injections",
							registry.ErrBadTrace, lineNo, ev.Kind)
					}
				}
				if p.Dur != nil {
					if ev.Kind != KindOutage {
						return nil, fmt.Errorf("scenario: %w: line %d: duration on a %q event", registry.ErrBadTrace, lineNo, ev.Kind)
					}
					if *p.Dur < 1 {
						return nil, fmt.Errorf("scenario: %w: line %d: outage lasting %d rounds", registry.ErrBadTrace, lineNo, *p.Dur)
					}
					ev.Dur = *p.Dur
				} else if ev.Kind == KindOutage {
					return nil, fmt.Errorf("scenario: %w: line %d: outage event without a duration", registry.ErrBadTrace, lineNo)
				}
				if p.Asleep != nil {
					if ev.Kind != KindSleep {
						return nil, fmt.Errorf("scenario: %w: line %d: sleep count on a %q event", registry.ErrBadTrace, lineNo, ev.Kind)
					}
					if *p.Asleep < 0 {
						return nil, fmt.Errorf("scenario: %w: line %d: negative sleep count %d", registry.ErrBadTrace, lineNo, *p.Asleep)
					}
					ev.Asleep = *p.Asleep
				}
				if n := len(t.Events); n > 0 {
					prev := t.Events[n-1]
					if *p.Round < prev.Round || (*p.Round == prev.Round &&
						(ch < prev.Channel || (ch == prev.Channel && kindRank(ev.Kind) <= kindRank(prev.Kind)))) {
						return nil, fmt.Errorf("scenario: %w: line %d: event (round %d, channel %d, kind %q) not after (round %d, channel %d, kind %q)",
							registry.ErrBadTrace, lineNo, *p.Round, ch, ev.Kind, prev.Round, prev.Channel, prev.Kind)
					}
				}
				if ev.Kind == "" {
					ev.Injs = p.Injs
					if len(ev.Injs) == 0 {
						ev.Injs = nil
					}
				}
				t.Events = append(t.Events, ev)
			default:
				return nil, fmt.Errorf("scenario: %w: line %d is neither an event nor a footer", registry.ErrBadTrace, lineNo)
			}
		}
		if err == io.EOF {
			break
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("scenario: %w: empty input", registry.ErrBadTrace)
	}
	return t, nil
}

// Replayer re-executes a recorded injection stream. It implements
// core.Adversary (so replays keep the simulator's round loop
// allocation-free, validators attached or not) and injects exactly
// what the recorded events carry, no bucket and no RNG — the recording
// already proved admissibility. A single-channel replay walks the
// whole trace; a network replay runs one Replayer per channel over
// that channel's entry events (network.NewReplaySource), so channels
// stepped concurrently share no replay state.
type Replayer struct {
	events []Event
	cur    int
}

// NewReplayer returns a replayer over events, positioned at round 0.
// The events must be in increasing round order, at most one injection
// event per round, as ReadTrace guarantees for each channel's stream.
func NewReplayer(events []Event) *Replayer { return &Replayer{events: events} }

// InjectAppend implements core.Adversary. Kinded events (trace v3)
// are not injections and are skipped; jams replay through the façade's
// jam-replay disruptor, outages and sleep are derived state recomputed
// during the replay.
//
//earmac:hotpath
func (r *Replayer) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	for r.cur < len(r.events) {
		ev := &r.events[r.cur]
		if ev.Round > round {
			break
		}
		if ev.Round == round && ev.Kind == "" {
			for _, p := range ev.Injs {
				buf = append(buf, core.Injection{Station: p[0], Dest: p[1]})
			}
			r.cur++
			break
		}
		r.cur++ // rounds the driver skipped, or a kinded event
	}
	return buf
}

// NextEventRound implements core.EventSkipper: the round of the first
// recorded injection event at or after from — exact, so replays skip
// straight from one recorded event to the next. The scan starts at the
// replay cursor, which InjectAppend keeps near the current round.
func (r *Replayer) NextEventRound(from int64) int64 {
	for i := r.cur; i < len(r.events); i++ {
		ev := &r.events[i]
		if ev.Kind == "" && ev.Round >= from {
			return ev.Round
		}
	}
	return -1
}

// SkipIdle implements core.EventSkipper. The replay cursor self-heals
// over skipped rounds in InjectAppend, so nothing advances here.
func (r *Replayer) SkipIdle(from, to int64) {}

// CheckAdmissible verifies that every prefix of a single-channel trace
// respects the (ρ, β) leaky-bucket contract, by driving the same
// integer Bucket the live adversary clips against over the trace's
// rounds (cost is linear in the number of events, not in their round
// numbers; see walkBuckets). For a network trace, use
// CheckAdmissibleSplit with the per-channel type.
func CheckAdmissible(t *Trace, typ adversary.Type) error {
	return checkAdmissible(t, typ, 1)
}

// CheckAdmissibleSplit verifies a network trace against the budget-split
// invariant (network.SplitType): every channel's entry stream must
// independently respect the given per-channel (ρ_c, β_c) type, and the
// network-wide entry stream must respect the *effective* global type
// (ρ_c·C, β_c·C). Note the effective burst: SplitType floors each
// channel's burst at 1, so when the nominal β < C the per-channel audit
// alone does NOT bound the network total by the nominal (ρ, β) — C
// channels bursting 1 each total C > β. The effective type is exactly
// what the per-channel contract implies (for the nominal budget it is
// (ρ, max(β, C))), and it is what reports should surface so sweep rows
// aren't mislabeled with the nominal budget.
func CheckAdmissibleSplit(t *Trace, perChannel adversary.Type, channels int) error {
	if err := checkAdmissible(t, perChannel, channels); err != nil {
		return err
	}
	return checkGlobalAdmissible(t, EffectiveGlobalType(perChannel, channels))
}

// EffectiveGlobalType is the tightest global (ρ, β) the per-channel
// split contract guarantees for the network-wide entry stream:
// (ρ_c·C, β_c·C). For a SplitType'd nominal budget this is
// (ρ, max(β, C)).
func EffectiveGlobalType(perChannel adversary.Type, channels int) adversary.Type {
	c := int64(channels)
	return adversary.Type{Rho: perChannel.Rho.MulInt(c), Beta: perChannel.Beta.MulInt(c)}
}

// checkGlobalAdmissible drives one bucket over the per-round injection
// totals summed across all channels.
func checkGlobalAdmissible(t *Trace, typ adversary.Type) error {
	if len(t.Events) == 0 {
		return nil
	}
	last := t.Events[len(t.Events)-1].Round
	return walkBuckets(t.Events, last, typ, 1, func(r int64, ev *Event, spent, budgets []int) error {
		spent[0] += len(ev.Injs)
		if spent[0] > budgets[0] {
			return fmt.Errorf("scenario: round %d: the network-wide entry stream injects %d packets but the effective global %v bucket allows %d",
				r, spent[0], typ, budgets[0])
		}
		return nil
	})
}

// CheckJamAdmissible verifies a trace's recorded jam stream against the
// jamming budget: each jam event costs one unit of a global (ρ_j, β_j)
// bucket, exactly as the live Jammer spends it.
func CheckJamAdmissible(t *Trace, typ adversary.Type) error {
	last := int64(-1)
	for _, ev := range t.Events {
		if ev.Kind == KindJam {
			last = ev.Round
		}
	}
	if last < 0 {
		return nil
	}
	return walkBuckets(t.Events, last, typ, 1, func(r int64, ev *Event, spent, budgets []int) error {
		if ev.Kind != KindJam {
			return nil
		}
		spent[0]++
		if spent[0] > budgets[0] {
			return fmt.Errorf("scenario: round %d: %d channels jammed but the %v jam bucket allows %d",
				r, spent[0], typ, budgets[0])
		}
		return nil
	})
}

func checkAdmissible(t *Trace, typ adversary.Type, channels int) error {
	if channels < 1 {
		return fmt.Errorf("scenario: admissibility check over %d channels", channels)
	}
	if len(t.Events) == 0 {
		return nil
	}
	last := t.Events[len(t.Events)-1].Round
	return walkBuckets(t.Events, last, typ, channels, func(r int64, ev *Event, spent, budgets []int) error {
		c := ev.Channel
		if c < 0 || c >= channels {
			return fmt.Errorf("scenario: round %d: event channel %d outside [0, %d)", r, c, channels)
		}
		spent[c] += len(ev.Injs)
		if spent[c] > budgets[c] {
			return fmt.Errorf("scenario: round %d channel %d injects %d packets but the %v bucket allows %d",
				r, c, spent[c], typ, budgets[c])
		}
		return nil
	})
}

// walkBuckets is the audits' one walk: `streams` buckets of type typ
// over rounds 0..last, each round a Tick, a charge per event, and a
// Spend of what was charged. Only rounds with events are visited: the
// idle rounds between advance every bucket by one SkipRounds, exactly
// that many Tick/Spend(0) pairs, so the cost is O(events × streams).
// charge books one event of round r against its budget and returns the
// audit's error. An event past last or out of round order ends the
// walk, since ticking round by round never reached it. A type whose
// bucket does not fit int64 arithmetic is adversary.CheckType's error.
func walkBuckets(events []Event, last int64, typ adversary.Type, streams int,
	charge func(r int64, ev *Event, spent, budgets []int) error) error {
	if err := adversary.CheckType(typ); err != nil {
		return err
	}
	buckets := make([]*adversary.Bucket, streams)
	for c := range buckets {
		buckets[c] = adversary.NewBucket(typ)
	}
	budgets := make([]int, streams)
	spent := make([]int, streams)
	next := int64(0) // the first round not yet walked
	for i := 0; i < len(events); {
		r := events[i].Round
		if r < next || r > last {
			break
		}
		for c, b := range buckets {
			b.SkipRounds(r - next)
			budgets[c] = b.Tick()
			spent[c] = 0
		}
		for ; i < len(events) && events[i].Round == r; i++ {
			if err := charge(r, &events[i], spent, budgets); err != nil {
				return err
			}
		}
		for c, b := range buckets {
			b.Spend(spent[c])
		}
		next = r + 1
	}
	return nil
}
