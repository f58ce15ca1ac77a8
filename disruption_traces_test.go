package earmac

// The disruption golden-trace corpus: jamming, outages, and
// duty-cycled stations, each pinned by a committed recording with
// kinded jam/outage/sleep events. The shared conformance loop
// (checkCorpus in traces_test.go) asserts the same equivalences as the
// other corpora — a live recording reproduces the file, re-encoding is
// byte-stable, and the recorded run, the checked-path replay and the
// fast-path replay are bit-identical on counters AND on the full
// re-recorded event stream — and this corpus adds the jamming budget
// audit and checks that every configured disruption left events.
// Regenerate with
//
//	go test -run TestDisruptionGoldenTraceCorpus -update .

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/scenario"
)

func disruptionCorpusCases() []corpusCase {
	base := Config{
		Algorithm: "aloha", N: 6, K: 3,
		RhoNum: 1, RhoDen: 3, Beta: 2,
		Pattern: "bernoulli", Seed: 7, Rounds: 2000,
	}
	jam := base
	jam.JamRhoNum, jam.JamRhoDen, jam.JamBeta = 1, 8, 1
	outage := base
	outage.Outages = []Outage{{Channel: 0, From: 400, Rounds: 100}, {Channel: 0, From: 1200, Rounds: 200}}
	sleep := base
	sleep.SleepAfterIdle, sleep.WakeEvery = 16, 8
	mixed := base
	mixed.JamRhoNum, mixed.JamRhoDen, mixed.JamBeta = 1, 8, 1
	mixed.Outages = []Outage{{Channel: 0, From: 900, Rounds: 150}}
	mixed.SleepAfterIdle, mixed.WakeEvery = 16, 8
	net := Config{
		Algorithm: "aloha", N: 5, K: 3,
		Topology: "line", Channels: 3,
		RhoNum: 1, RhoDen: 2, Beta: 3,
		Pattern: "bernoulli", Seed: 11, Rounds: 2000,
		JamRhoNum: 1, JamRhoDen: 4, JamBeta: 2,
		Outages:        []Outage{{Channel: 1, From: 600, Rounds: 200}},
		SleepAfterIdle: 32, WakeEvery: 16,
	}
	return []corpusCase{
		{"dis-jam-aloha", jam},
		{"dis-outage-aloha", outage},
		{"dis-sleep-aloha", sleep},
		{"dis-mixed-aloha", mixed},
		{"dis-net-line-aloha", net},
	}
}

func TestDisruptionGoldenTraceCorpus(t *testing.T) {
	checkCorpus(t, disruptionCorpusCases(), func(t *testing.T, cfg Config, tr *Trace) {
		// Each configured disruption actually left events, and the
		// footer shows its effect.
		kinds := map[string]int{}
		for _, ev := range tr.Events {
			kinds[ev.Kind]++
		}
		final := tr.Footer.Counters
		if cfg.JamRhoNum > 0 {
			if kinds[scenario.KindJam] == 0 {
				t.Error("jamming configured but no jam events recorded")
			}
			if final.JammedRounds == 0 {
				t.Error("jamming configured but JammedRounds = 0")
			}
			jt := adversary.T(cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta)
			if err := scenario.CheckJamAdmissible(tr, jt); err != nil {
				t.Errorf("recorded jam stream violates its budget: %v", err)
			}
		}
		if len(cfg.Outages) > 0 {
			if kinds[scenario.KindOutage] != len(cfg.Outages) {
				t.Errorf("%d outage windows configured, %d outage events recorded",
					len(cfg.Outages), kinds[scenario.KindOutage])
			}
			if final.OutageRounds == 0 {
				t.Error("outages configured but OutageRounds = 0")
			}
		}
		if cfg.SleepAfterIdle > 0 && kinds[scenario.KindSleep] == 0 {
			t.Error("duty-cycling configured but no sleep transitions recorded")
		}
	})
}

// TestDisruptionGoldenTraceCorpusComplete pins the disruption corpus
// inventory.
func TestDisruptionGoldenTraceCorpusComplete(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(traceDir, "dis-*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(disruptionCorpusCases()); len(files) != want {
		t.Fatalf("disruption corpus has %d traces, want %d; regenerate with -update", len(files), want)
	}
}

// TestTraceCorpusByteStable pins the writer over the committed corpus
// and the older readers over the frozen legacy fixtures. Every corpus
// trace survives a ReadTrace → WriteTrace round trip byte for byte.
// Each fixture under testdata/traces/legacy (a version 1 single-channel
// and a version 2 network recording, kept as their recorder wrote them)
// must decode, replay to its footer counters on the checked and the
// fast path, and re-encode at TraceVersion with identical events.
// Together the two sets witness every version the reader accepts.
func TestTraceCorpusByteStable(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(traceDir, "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed traces found")
	}
	versions := map[int]int{}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		versions[tr.Header.Version]++
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("%s: re-encoding changed the bytes (version %d)",
				filepath.Base(path), tr.Header.Version)
		}
	}
	legacy, err := filepath.Glob(filepath.Join(traceDir, "legacy", "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range legacy {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			versions[tr.Header.Version]++
			checkReplays(t, tr)
			var buf bytes.Buffer
			if err := WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := *tr
			want.Header.Version = TraceVersion
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("re-encoding at version %d changed the trace beyond its version (%d events vs %d)",
					TraceVersion, len(got.Events), len(tr.Events))
			}
		})
	}
	// The corpus and the fixtures must keep witnessing every format
	// version the reader accepts, or the compatibility claim goes
	// untested.
	for v := scenario.TraceVersionLegacy; v <= scenario.TraceVersion; v++ {
		if versions[v] == 0 {
			t.Errorf("no committed trace exercises format version %d", v)
		}
	}
}
