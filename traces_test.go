package earmac

// The golden-trace conformance corpus: every registered algorithm is
// pinned by two committed traces — a stochastic (bernoulli) scenario
// and a phased (quiet → burst → sustained poisson) one. Each trace's
// footer records the run's final flat counters. The conformance loop
// (checkCorpus, shared with the network and disruption corpora)
// requires a live recording of each case's Config to reproduce its
// committed file byte for byte, and replays the trace on BOTH the fast
// and the checked simulator paths, requiring bit-identical counters and
// a bit-identical re-recorded injection stream. Every committed corpus
// trace is at TraceVersion; the frozen fixtures under
// testdata/traces/legacy keep the version 1 and 2 readers tested.
// Regenerate the corpus with
//
//	go test -run 'GoldenTraceCorpus$' -update .
//
// after any deliberate change to an algorithm's behaviour, the RNG
// plumbing, or the trace format (bump TraceVersion for the latter).

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"earmac/internal/adversary"
	"earmac/internal/scenario"
)

var update = flag.Bool("update", false, "regenerate golden traces and CLI fixtures")

const traceDir = "testdata/traces"

type corpusCase struct {
	name string
	cfg  Config
}

// corpusCases enumerates the corpus: every algorithm × {stochastic,
// phased}. Small horizons keep the committed files a few KB each while
// still crossing several phase boundaries and bucket refill cycles.
func corpusCases() []corpusCase {
	var out []corpusCase
	for _, alg := range Algorithms() {
		out = append(out,
			corpusCase{alg + "-stochastic", Config{
				Algorithm: alg, N: 6, K: 3,
				RhoNum: 1, RhoDen: 3, Beta: 2,
				Pattern: "bernoulli", Seed: 7, Rounds: 2000,
			}},
			corpusCase{alg + "-phased", Config{
				Algorithm: alg, N: 6, K: 3,
				RhoNum: 1, RhoDen: 2, Beta: 3,
				Phases: []Phase{
					{Pattern: "quiet", Rounds: 400},
					{Pattern: "bursty", Rounds: 400},
					{Pattern: "poisson-batch", Rounds: 0},
				},
				Seed: 9, Rounds: 2000,
			}},
		)
	}
	return out
}

func tracePath(name string) string { return filepath.Join(traceDir, name+".trace.jsonl") }

func TestGoldenTraceCorpus(t *testing.T) {
	checkCorpus(t, corpusCases(), func(t *testing.T, cfg Config, tr *Trace) {
		// The recorded stream must respect the (ρ, β) contract it was
		// sampled under.
		typ := adversary.T(cfg.RhoNum, cfg.RhoDen, cfg.Beta)
		if err := scenario.CheckAdmissible(tr, typ); err != nil {
			t.Errorf("golden trace violates its contract: %v", err)
		}
	})
}

// checkCorpus is the conformance loop the golden corpora share. For
// each case it records the case's Config live, and with -update writes
// that recording over the committed file first. The live recording
// must reproduce the committed file byte for byte, so a drift in
// pattern generation or in the header's Config JSON fails here rather
// than at the next -update. The file must decode at TraceVersion with
// the Config's channel count, re-encode to the same bytes, replay
// bit-identically on both simulator paths (checkReplays, which also
// requires the footer's counters) and pass the corpus's own audit,
// given the header's Config.
func checkCorpus(t *testing.T, cases []corpusCase, audit func(t *testing.T, cfg Config, tr *Trace)) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var live bytes.Buffer
			cfg := c.cfg
			cfg.RecordTo = &live
			if _, err := Run(cfg); err != nil {
				t.Fatalf("recording: %v", err)
			}
			path := tracePath(c.name)
			if *update {
				if err := os.WriteFile(path, live.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (regenerate with -update): %v", err)
			}
			if !bytes.Equal(live.Bytes(), raw) {
				t.Errorf("a live recording of the case's Config differs from the committed trace (%d bytes vs %d)",
					live.Len(), len(raw))
			}
			tr, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Header.Version != TraceVersion || tr.Header.Channels != c.cfg.Channels {
				t.Fatalf("header declares version %d with %d channels, want version %d with %d",
					tr.Header.Version, tr.Header.Channels, TraceVersion, c.cfg.Channels)
			}
			var reenc bytes.Buffer
			if err := WriteTrace(&reenc, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reenc.Bytes(), raw) {
				t.Error("re-encoding the golden trace changed its bytes")
			}
			hcfg, err := TraceConfig(tr)
			if err != nil {
				t.Fatal(err)
			}
			checkReplays(t, tr)
			audit(t, hcfg, tr)
		})
	}
}

// checkReplays replays tr on the checked and the fast simulator path.
// Each replay must run without violations, keep the recording's network
// dimension, and re-record the footer's counters and the same event
// stream, kinded jam/outage/sleep events included.
func checkReplays(t *testing.T, tr *Trace) {
	t.Helper()
	if tr.Footer == nil || tr.Footer.Counters == nil {
		t.Fatal("trace has no pinned counters")
	}
	want := *tr.Footer.Counters
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"checked", func(c *Config) { c.ForceChecked = true }},
		{"fast", func(c *Config) { c.Lenient, c.DisableChecks = true, true }},
	}
	for _, mode := range modes {
		rcfg, err := ReplayConfig(tr)
		if err != nil {
			t.Fatal(err)
		}
		mode.mutate(&rcfg)
		var buf bytes.Buffer
		rcfg.RecordTo = &buf
		rep, err := Run(rcfg)
		if err != nil {
			t.Fatalf("%s replay: %v", mode.name, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s replay hit violations: %v", mode.name, rep.Violations)
		}
		if rep.Topology != rcfg.Topology || rep.Channels != rcfg.Channels || len(rep.PerChannel) != rcfg.Channels {
			t.Fatalf("%s replay report lost the network dimension: %+v", mode.name, rep)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s replay re-recording: %v", mode.name, err)
		}
		if got.Footer == nil || got.Footer.Counters == nil {
			t.Fatalf("%s replay recorded no counters", mode.name)
		}
		if *got.Footer.Counters != want {
			t.Errorf("%s replay counters differ from the golden footer:\ngot  %+v\nwant %+v",
				mode.name, *got.Footer.Counters, want)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Errorf("%s replay re-recorded a different event stream (%d events vs %d)",
				mode.name, len(got.Events), len(tr.Events))
		}
	}
}

// TestGoldenTraceCorpusComplete pins the corpus inventory itself: a
// newly registered algorithm must gain its two golden traces. The
// multi-channel corpus ("net-" prefix, see network_traces_test.go) and
// the disruption corpus ("dis-" prefix, see disruption_traces_test.go)
// are inventoried separately.
func TestGoldenTraceCorpusComplete(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(traceDir, "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	single := files[:0]
	for _, f := range files {
		base := filepath.Base(f)
		if !strings.HasPrefix(base, "net-") && !strings.HasPrefix(base, "dis-") {
			single = append(single, f)
		}
	}
	want := 2 * len(Algorithms())
	if len(single) != want {
		t.Fatalf("corpus has %d single-channel traces, want %d (2 per algorithm); regenerate with -update", len(single), want)
	}
}

// TestReplayOfCancelledRecording: a recording cut short still yields a
// replayable trace — the footer pins the counters at the cancellation
// round, and ReplayConfig truncates the horizon to match, so the
// replay reproduces the partial run bit-identically instead of running
// the configured horizon past the recording.
func TestReplayOfCancelledRecording(t *testing.T) {
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Algorithm: "orchestra", N: 6,
		RhoNum: 1, RhoDen: 3, Beta: 2,
		Pattern: "poisson-batch", Seed: 21, Rounds: 50000,
		RecordTo:      &buf,
		ProgressEvery: 7000,
		OnProgress: func(p Progress) {
			if p.Round >= 7000 {
				cancel()
			}
		},
	}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Footer == nil || tr.Footer.Counters == nil || tr.Footer.Counters.Rounds != 7000 {
		t.Fatalf("footer not pinned at the cancellation round: %+v", tr.Footer)
	}
	rcfg, err := ReplayConfig(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.Rounds != 7000 {
		t.Fatalf("ReplayConfig horizon = %d, want truncated to 7000", rcfg.Rounds)
	}
	var rbuf bytes.Buffer
	rcfg.RecordTo = &rbuf
	if _, err := Run(rcfg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if *got.Footer.Counters != *tr.Footer.Counters {
		t.Errorf("replay of the partial run diverged:\ngot  %+v\nwant %+v",
			*got.Footer.Counters, *tr.Footer.Counters)
	}
}

// TestStochasticScenariosAdmissible is the property-based check: for
// random seeds, rates, and burstiness, every stochastic (and phased)
// scenario injects a packet stream that the checked path — including
// the packet-conservation validator, which fires at round 10007 — runs
// without a single model violation, and whose recorded trace passes the
// exact leaky-bucket audit.
func TestStochasticScenariosAdmissible(t *testing.T) {
	prop := func(seedRaw uint32, rnRaw, rdRaw, bRaw uint8, poisson, phased bool) bool {
		rd := int64(rdRaw%60) + 1
		rn := int64(rnRaw)%rd + 1
		b := int64(bRaw%6) + 1
		pat := "bernoulli"
		if poisson {
			pat = "poisson-batch"
		}
		cfg := Config{
			Algorithm: "orchestra", N: 6,
			RhoNum: rn, RhoDen: rd, Beta: b,
			Pattern: pat, Seed: int64(seedRaw) + 1,
			Rounds: 12000, // past the conservation checkpoint at 10007
		}
		if phased {
			cfg.Phases = []Phase{
				{Pattern: "quiet", Rounds: 500},
				{Pattern: pat, Rounds: 2500},
				{Pattern: "bernoulli", Rounds: 0},
			}
		}
		var buf bytes.Buffer
		cfg.RecordTo = &buf
		rep, err := Run(cfg) // strict + conservation checks on
		if err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		if len(rep.Violations) != 0 {
			t.Logf("cfg %+v: violations %v", cfg, rep.Violations)
			return false
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		if err := scenario.CheckAdmissible(tr, adversary.T(rn, rd, b)); err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
