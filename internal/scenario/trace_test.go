package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/registry"
)

func sampleTrace() *Trace {
	return &Trace{
		Header: Header{Version: TraceVersion, N: 6, Rounds: 100,
			Config: json.RawMessage(`{"algorithm":"orchestra","n":6}`)},
		Events: []Event{
			{Round: 0, Injs: [][2]int{{0, 1}}},
			{Round: 3, Injs: [][2]int{{2, 5}, {1, 4}}},
			{Round: 99, Injs: [][2]int{{5, 0}}},
		},
		Footer: &Footer{Injected: 4, Counters: &metrics.Counters{Rounds: 100, Injected: 4, Delivered: 3}},
	}
}

func TestTraceWriteReadRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestEncoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Header{N: 4, Rounds: 50})
	scratch := make([]core.Injection, 0, 4)
	enc.Round(0, append(scratch[:0], core.Injection{Station: 1, Dest: 2}))
	enc.Round(1, nil) // empty rounds leave no line
	enc.Round(7, append(scratch[:0], core.Injection{Station: 0, Dest: 3}, core.Injection{Station: 3, Dest: 0}))
	c := metrics.Counters{Rounds: 50, Injected: 3}
	if err := enc.Close(&c); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.N != 4 || tr.Header.Rounds != 50 || tr.Header.Version != TraceVersion {
		t.Errorf("bad header %+v", tr.Header)
	}
	wantEvents := []Event{
		{Round: 0, Injs: [][2]int{{1, 2}}},
		{Round: 7, Injs: [][2]int{{0, 3}, {3, 0}}},
	}
	if !reflect.DeepEqual(tr.Events, wantEvents) {
		t.Errorf("events %+v, want %+v", tr.Events, wantEvents)
	}
	if tr.Footer == nil || tr.Footer.Injected != 3 || *tr.Footer.Counters != c {
		t.Errorf("footer %+v", tr.Footer)
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":                "",
		"garbage":              "not json at all\n",
		"wrong version":        `{"earmac_trace":4,"n":4,"rounds":10}` + "\n",
		"channel id in v1":     "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":1,\"c\":1,\"i\":[[0,1]]}\n",
		"channel, no channels": "{\"earmac_trace\":3,\"n\":4,\"rounds\":10}\n{\"r\":1,\"c\":1,\"i\":[[0,1]]}\n",
		"channel, v2 no count": "{\"earmac_trace\":2,\"n\":4,\"rounds\":10}\n{\"r\":1,\"c\":1,\"i\":[[0,1]]}\n",
		"negative channel":     "{\"earmac_trace\":2,\"n\":4,\"rounds\":10,\"channels\":2}\n{\"r\":1,\"c\":-1,\"i\":[[0,1]]}\n",
		"channel overflow":     "{\"earmac_trace\":2,\"n\":4,\"rounds\":10,\"channels\":2}\n{\"r\":1,\"c\":2,\"i\":[[0,1]]}\n",
		"channel regression":   "{\"earmac_trace\":2,\"n\":4,\"rounds\":10,\"channels\":3}\n{\"r\":1,\"c\":2,\"i\":[[0,1]]}\n{\"r\":1,\"c\":1,\"i\":[[0,1]]}\n",
		"same round+channel":   "{\"earmac_trace\":2,\"n\":4,\"rounds\":10,\"channels\":3}\n{\"r\":1,\"c\":2,\"i\":[[0,1]]}\n{\"r\":1,\"c\":2,\"i\":[[0,1]]}\n",
		"no version":           `{"n":4,"rounds":10}` + "\n",
		"bad event":            "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":\"zero\"}\n",
		"unknown line":         "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"x\":1}\n",
		"negative round":       "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":-1,\"i\":[[0,1]]}\n",
		"non-increasing":       "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":5,\"i\":[[0,1]]}\n{\"r\":5,\"i\":[[0,1]]}\n",
		"data after footer":    "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"final\":{\"injected\":0}}\n{\"r\":1,\"i\":[[0,1]]}\n",
		"float counter field":  "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"final\":{\"injected\":0,\"counters\":{\"Rounds\":1.5}}}\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, registry.ErrBadTrace) {
			t.Errorf("%s: error %v does not wrap ErrBadTrace", name, err)
		}
	}
}

// TestReadTraceNormalizesConfig pins the round trip for headers whose
// raw config is not in json.Marshal's form (hand-edited spacing,
// HTML-escapable characters) and whose version is older than the
// writer's: ReadTrace normalizes, so decode ∘ encode is the identity
// but for the header's version, and Write is a byte fixpoint.
func TestReadTraceNormalizesConfig(t *testing.T) {
	in := "{\"earmac_trace\":1,\"n\":4,\"rounds\":10,\"config\":{ \"algorithm\" : \"a<b\" }}\n{\"r\":1,\"i\":[[0,1]]}\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	checkRewrite(t, tr)
	var cfg struct {
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal(tr.Header.Config, &cfg); err != nil || cfg.Algorithm != "a<b" {
		t.Fatalf("normalization corrupted the config: %s (%v)", tr.Header.Config, err)
	}
}

// checkRewrite asserts the writer's contract on a decoded trace x:
// ReadTrace(Write(x)) is x with Header.Version = TraceVersion, and
// Write(ReadTrace(Write(x))) repeats Write(x) byte for byte.
func checkRewrite(t *testing.T, x *Trace) {
	t.Helper()
	var first bytes.Buffer
	if err := Write(&first, x); err != nil {
		t.Fatalf("re-encoding an accepted trace failed: %v", err)
	}
	y, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding a written trace failed: %v\ntrace: %s", err, first.Bytes())
	}
	want := *x
	want.Header.Version = TraceVersion
	if !reflect.DeepEqual(y, &want) {
		t.Fatalf("decode(encode(x)) != x at version %d:\nx:  %+v\nx': %+v", TraceVersion, &want, y)
	}
	var second bytes.Buffer
	if err := Write(&second, y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), first.Bytes()) {
		t.Fatalf("Write is not a fixpoint:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}
}

func TestReadTraceToleratesMissingFooter(t *testing.T) {
	in := "{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":2,\"i\":[[0,1]]}\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Footer != nil || len(tr.Events) != 1 {
		t.Fatalf("got %+v", tr)
	}
}

func TestReplayerReproducesStream(t *testing.T) {
	tr := sampleTrace()
	r := NewReplayer(tr.Events)
	var buf []core.Injection
	for round := int64(0); round < 100; round++ {
		buf = r.InjectAppend(round, buf[:0])
		var want []core.Injection
		for _, ev := range tr.Events {
			if ev.Round == round {
				for _, p := range ev.Injs {
					want = append(want, core.Injection{Station: p[0], Dest: p[1]})
				}
			}
		}
		if !reflect.DeepEqual(append([]core.Injection(nil), buf...), want) && !(len(buf) == 0 && len(want) == 0) {
			t.Fatalf("round %d: replayed %+v, want %+v", round, buf, want)
		}
	}
}

func TestCheckAdmissible(t *testing.T) {
	typ := adversary.T(1, 2, 1) // budget starts at ⌊1/2+1⌋ = 1
	ok := &Trace{Events: []Event{
		{Round: 0, Injs: [][2]int{{0, 1}}},
		{Round: 2, Injs: [][2]int{{0, 1}}},
		{Round: 4, Injs: [][2]int{{0, 1}}},
	}}
	if err := CheckAdmissible(ok, typ); err != nil {
		t.Errorf("admissible trace rejected: %v", err)
	}
	bad := &Trace{Events: []Event{
		{Round: 0, Injs: [][2]int{{0, 1}, {1, 0}, {2, 0}}}, // 3 > ⌊ρ+β⌋ = 1
	}}
	if err := CheckAdmissible(bad, typ); err == nil {
		t.Error("inadmissible trace accepted")
	}
	// A hostile round number costs one bucket skip, not 9×10^18 ticks;
	// the budget there is the full-credit one.
	far := &Trace{Events: []Event{
		{Round: 1, Injs: [][2]int{{0, 1}}},
		{Round: 9e18, Injs: [][2]int{{0, 1}}},
	}}
	if err := CheckAdmissible(far, typ); err != nil {
		t.Errorf("admissible far trace rejected: %v", err)
	}
	far.Events[1].Injs = [][2]int{{0, 1}, {1, 0}}
	want := "scenario: round 9000000000000000000 channel 0 injects 2 packets but the (ρ=1/2, β=1) bucket allows 1"
	if err := CheckAdmissible(far, typ); err == nil || err.Error() != want {
		t.Errorf("far overdraw: got %v, want %q", err, want)
	}
}

// TestCheckJamAdmissible: the jam audit charges one unit per jam event,
// whatever its channel, against one global bucket, and entry events
// cost it nothing.
func TestCheckJamAdmissible(t *testing.T) {
	typ := adversary.T(1, 4, 1) // one jam per four rounds, burst 1
	ok := &Trace{Events: []Event{
		{Round: 0, Kind: KindJam},
		{Round: 2, Injs: [][2]int{{0, 1}, {1, 0}}},
		{Round: 4, Channel: 1, Kind: KindJam},
		{Round: 9e18, Kind: KindJam},
	}}
	if err := CheckJamAdmissible(ok, typ); err != nil {
		t.Errorf("admissible jam stream rejected: %v", err)
	}
	for _, r := range []int64{3, 9e18} {
		bad := &Trace{Events: []Event{
			{Round: 0, Kind: KindJam},
			{Round: r, Kind: KindJam},
			{Round: r, Channel: 1, Kind: KindJam},
		}}
		want := fmt.Sprintf("scenario: round %d: 2 channels jammed but the (ρ=1/4, β=1) jam bucket allows 1", r)
		if err := CheckJamAdmissible(bad, typ); err == nil || err.Error() != want {
			t.Errorf("round %d: got %v, want %q", r, err, want)
		}
	}
}

// FuzzTraceRoundTrip asserts the decoder and writer invariants the
// format promises: malformed input never panics, and any trace the
// decoder accepts re-encodes at TraceVersion to an equivalent trace,
// byte-stable from then on (checkRewrite).
func FuzzTraceRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("{\"earmac_trace\":1,\"n\":2,\"rounds\":5}\n{\"r\":1,\"i\":[[0,1]]}\n"))
	f.Add([]byte("{\"earmac_trace\":1}\n{\"final\":{\"injected\":0}}\n"))
	f.Add([]byte("{\"earmac_trace\":2}\n"))
	f.Add([]byte("{\"earmac_trace\":2,\"n\":4,\"rounds\":9,\"channels\":3}\n{\"r\":1,\"i\":[[0,5]]}\n{\"r\":1,\"c\":2,\"i\":[[9,1]]}\n{\"final\":{\"injected\":2}}\n"))
	f.Add([]byte("garbage\n{\"r\":1}\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	// A single-channel recording with a channel id spliced in after its
	// third line: ReadTrace must reject it, as a replay would otherwise
	// drop the event silently.
	dis, err := os.ReadFile("../../testdata/traces/dis-jam-aloha.trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfterN(dis, []byte("\n"), 4)
	f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[2], []byte("{\"r\":1,\"c\":1,\"i\":[[4,2]]}\n"), lines[3]}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected loudly: fine
		}
		checkRewrite(t, tr)
	})
}

// TestTraceV2EncoderStream pins the network recording surface that
// version 2 introduced: a header with a channel dimension is written at
// TraceVersion with its channel count, ChannelRound emits "c" for
// non-zero channels only, and decode reproduces the stream.
func TestTraceV2EncoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Header{N: 4, Rounds: 50, Channels: 3})
	enc.ChannelRound(0, 0, []core.Injection{{Station: 1, Dest: 9}})
	enc.ChannelRound(0, 2, []core.Injection{{Station: 8, Dest: 2}, {Station: 11, Dest: 0}})
	enc.ChannelRound(5, 1, []core.Injection{{Station: 4, Dest: 10}})
	c := metrics.Counters{Rounds: 50, Injected: 4}
	if err := enc.Close(&c); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.HasPrefix(raw, fmt.Sprintf(`{"earmac_trace":%d,`, TraceVersion)) || !strings.Contains(raw, `"channels":3`) {
		t.Errorf("header not version %d with channels:\n%s", TraceVersion, raw)
	}
	if strings.Contains(raw, `{"r":0,"c":0`) {
		t.Errorf("channel 0 should omit the c field:\n%s", raw)
	}
	tr, err := ReadTrace(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := []Event{
		{Round: 0, Injs: [][2]int{{1, 9}}},
		{Round: 0, Channel: 2, Injs: [][2]int{{8, 2}, {11, 0}}},
		{Round: 5, Channel: 1, Injs: [][2]int{{4, 10}}},
	}
	if !reflect.DeepEqual(tr.Events, wantEvents) {
		t.Errorf("events %+v, want %+v", tr.Events, wantEvents)
	}
	if tr.Footer == nil || tr.Footer.Injected != 4 {
		t.Errorf("footer %+v", tr.Footer)
	}
	// And Write re-encodes the recording bit-for-bit.
	var buf2 bytes.Buffer
	if err := Write(&buf2, tr); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != raw {
		t.Errorf("re-encoding differs:\ngot  %s\nwant %s", buf2.String(), raw)
	}
}

// TestCheckAdmissibleSplit: per-channel budget audit of a v2 stream —
// each channel independently bounded by the split type.
func TestCheckAdmissibleSplit(t *testing.T) {
	// Per-channel type (ρ=1/2, β=1): one packet every other round, burst 1.
	typ := adversary.T(1, 2, 1)
	ok := &Trace{Events: []Event{
		{Round: 0, Channel: 0, Injs: [][2]int{{0, 1}}},
		{Round: 0, Channel: 1, Injs: [][2]int{{4, 5}}},
		{Round: 2, Channel: 0, Injs: [][2]int{{1, 0}}},
	}}
	if err := CheckAdmissibleSplit(ok, typ, 2); err != nil {
		t.Errorf("admissible stream rejected: %v", err)
	}
	// Channel 1 overdraws its round-0 burst (2 > ⌊ρ+β⌋ = 1) even though
	// channel 0 is idle: the split budget must not leak across channels.
	bad := &Trace{Events: []Event{
		{Round: 0, Channel: 1, Injs: [][2]int{{4, 5}, {5, 4}}},
	}}
	if err := CheckAdmissibleSplit(bad, typ, 2); err == nil {
		t.Error("per-channel overdraw accepted")
	}
	// Out-of-range channel fails loudly.
	oob := &Trace{Events: []Event{{Round: 0, Channel: 5, Injs: [][2]int{{0, 1}}}}}
	if err := CheckAdmissibleSplit(oob, typ, 2); err == nil {
		t.Error("out-of-range channel accepted")
	}
	// Each channel's (ρ=1/(2^62−1), β=1) bucket fits int64, but the
	// effective global (2ρ, 2) bucket's cap plus gain is 2^63: an error
	// wrapping ErrBadBurst, not a panic.
	one := &Trace{Events: []Event{{Round: 0, Injs: [][2]int{{0, 1}}}}}
	if err := CheckAdmissibleSplit(one, adversary.T(1, 1<<62-1, 1), 2); !errors.Is(err, registry.ErrBadBurst) {
		t.Errorf("overflowing effective global type: got %v, want ErrBadBurst", err)
	}
	// Hostile round numbers cost one bucket skip per channel. Both
	// channels bursting at round 9×10^18 is admissible per channel but
	// overdraws the effective global (ρ=1, β=2) bucket's 3 with 4.
	far := &Trace{Events: []Event{
		{Round: 1, Channel: 1, Injs: [][2]int{{4, 5}}},
		{Round: 9e18, Channel: 0, Injs: [][2]int{{0, 1}}},
		{Round: 9e18, Channel: 1, Injs: [][2]int{{4, 5}}},
	}}
	if err := CheckAdmissibleSplit(far, typ, 2); err != nil {
		t.Errorf("admissible far stream rejected: %v", err)
	}
	far.Events[2].Injs = [][2]int{{4, 5}, {5, 4}}
	want := "scenario: round 9000000000000000000 channel 1 injects 2 packets but the (ρ=1/2, β=1) bucket allows 1"
	if err := CheckAdmissibleSplit(far, typ, 2); err == nil || err.Error() != want {
		t.Errorf("far per-channel overdraw: got %v, want %q", err, want)
	}
}

// FuzzAdmissible checks the audits' skipping walk against the per-round
// walk it replaced (kept below as the reference): for any trace
// ReadTrace accepts whose last event is at round 2^16 or earlier,
// CheckAdmissible, CheckAdmissibleSplit and CheckJamAdmissible return
// exactly what ticking every round returns — nil, or the same error
// text. Farther traces, like the round-9×10^18 seed, must just finish.
// The corpus seeds are each golden trace's first lines: the fuzzer
// minimizes every new input it finds, and minimizing one derived from
// a whole trace takes longer than a fuzzing run.
func FuzzAdmissible(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/traces/*.trace.jsonl")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus traces (%v)", err)
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfterN(data, []byte("\n"), 25)
		f.Add(bytes.Join(lines[:len(lines)-1], nil), uint8(i), uint8(2), uint8(i%3), uint8(i))
	}
	f.Add([]byte("{\"earmac_trace\":1,\"n\":4,\"rounds\":10}\n{\"r\":1,\"i\":[[0,1]]}\n{\"r\":9000000000000000000,\"i\":[[1,2]]}\n"),
		uint8(1), uint8(2), uint8(2), uint8(0))
	// Exactly at the (ρ=1/4, β=1) budget: a walk that skips one round
	// too few rejects round 8.
	f.Add([]byte("{\"earmac_trace\":1,\"n\":2,\"rounds\":9}\n{\"r\":0,\"i\":[[0,1]]}\n{\"r\":4,\"i\":[[0,1]]}\n{\"r\":8,\"i\":[[1,0]]}\n"),
		uint8(1), uint8(3), uint8(1), uint8(0))
	f.Add([]byte("{\"earmac_trace\":3,\"n\":4,\"rounds\":9,\"channels\":4}\n{\"r\":0,\"k\":\"jam\"}\n{\"r\":0,\"c\":1,\"i\":[[4,5],[5,4]]}\n{\"r\":0,\"c\":1,\"k\":\"jam\"}\n{\"r\":7,\"c\":3,\"i\":[[6,7]]}\n"),
		uint8(1), uint8(3), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rn, rd, b, ch uint8) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		typ := adversary.T(int64(rn%5), int64(rd%8)+1, int64(b%4))
		channels := int(ch%4) + 1
		got := []error{
			CheckAdmissible(tr, typ),
			CheckAdmissibleSplit(tr, typ, channels),
			CheckJamAdmissible(tr, typ),
		}
		if n := len(tr.Events); n > 0 && tr.Events[n-1].Round > 1<<16 {
			return
		}
		want := []error{
			refCheckAdmissible(tr, typ, 1),
			refCheckAdmissible(tr, typ, channels),
			refCheckJamAdmissible(tr, typ),
		}
		if want[1] == nil {
			want[1] = refCheckGlobalAdmissible(tr, EffectiveGlobalType(typ, channels))
		}
		names := []string{"CheckAdmissible", fmt.Sprintf("CheckAdmissibleSplit over %d channels", channels), "CheckJamAdmissible"}
		for i, name := range names {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Errorf("%s under %v = %v, per-round walk says %v", name, typ, got[i], want[i])
			}
		}
	})
}

// refCheckAdmissible is the per-round per-channel audit walk, ticking
// every round from 0 to the last event: the reference FuzzAdmissible
// holds the skipping walk to.
func refCheckAdmissible(t *Trace, typ adversary.Type, channels int) error {
	if channels < 1 {
		return fmt.Errorf("scenario: admissibility check over %d channels", channels)
	}
	if len(t.Events) == 0 {
		return nil
	}
	buckets := make([]*adversary.Bucket, channels)
	for c := range buckets {
		buckets[c] = adversary.NewBucket(typ)
	}
	budgets := make([]int, channels)
	spent := make([]int, channels)
	last := t.Events[len(t.Events)-1].Round
	i := 0
	for r := int64(0); r <= last; r++ {
		for c, b := range buckets {
			budgets[c] = b.Tick()
			spent[c] = 0
		}
		for i < len(t.Events) && t.Events[i].Round == r {
			ev := t.Events[i]
			i++
			if ev.Channel < 0 || ev.Channel >= channels {
				return fmt.Errorf("scenario: round %d: event channel %d outside [0, %d)",
					r, ev.Channel, channels)
			}
			spent[ev.Channel] += len(ev.Injs)
			if spent[ev.Channel] > budgets[ev.Channel] {
				return fmt.Errorf("scenario: round %d channel %d injects %d packets but the %v bucket allows %d",
					r, ev.Channel, spent[ev.Channel], typ, budgets[ev.Channel])
			}
		}
		for c, b := range buckets {
			b.Spend(spent[c])
		}
	}
	return nil
}

// refCheckGlobalAdmissible is the per-round network-wide audit walk.
func refCheckGlobalAdmissible(t *Trace, typ adversary.Type) error {
	if len(t.Events) == 0 {
		return nil
	}
	b := adversary.NewBucket(typ)
	last := t.Events[len(t.Events)-1].Round
	i := 0
	for r := int64(0); r <= last; r++ {
		budget := b.Tick()
		spent := 0
		for i < len(t.Events) && t.Events[i].Round == r {
			spent += len(t.Events[i].Injs)
			i++
			if spent > budget {
				return fmt.Errorf("scenario: round %d: the network-wide entry stream injects %d packets but the effective global %v bucket allows %d",
					r, spent, typ, budget)
			}
		}
		b.Spend(spent)
	}
	return nil
}

// refCheckJamAdmissible is the per-round jam audit walk.
func refCheckJamAdmissible(t *Trace, typ adversary.Type) error {
	last := int64(-1)
	for _, ev := range t.Events {
		if ev.Kind == KindJam {
			last = ev.Round
		}
	}
	if last < 0 {
		return nil
	}
	b := adversary.NewBucket(typ)
	i := 0
	for r := int64(0); r <= last; r++ {
		budget := b.Tick()
		spent := 0
		for i < len(t.Events) && t.Events[i].Round == r {
			if t.Events[i].Kind == KindJam {
				spent++
				if spent > budget {
					return fmt.Errorf("scenario: round %d: %d channels jammed but the %v jam bucket allows %d",
						r, spent, typ, budget)
				}
			}
			i++
		}
		b.Spend(spent)
	}
	return nil
}
