package earmac

// The multi-channel golden-trace conformance corpus: line, star, grid
// and random topologies × two algorithms, each pinned by a committed
// recording whose header declares the channel count and whose footer
// carries the network's aggregate counters. The shared conformance loop
// (checkCorpus in traces_test.go) asserts the same equivalences the
// single-channel corpus does — a live recording reproduces the file,
// and the checked-path and fast-path replays agree bit-for-bit on
// counters and on the re-recorded entry stream — and this corpus adds
// the per-channel budget-split audit. Regenerate with
//
//	go test -run TestNetworkGoldenTraceCorpus -update .

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/network"
	"earmac/internal/scenario"
)

// networkCorpusCases: β = 3 with 3 channels keeps the burst split exact
// (each entry bucket gets β/C = 1), so the recorded streams witness the
// clean Σ(ρ_c, β_c) = (ρ, β) budget-split invariant.
func networkCorpusCases() []corpusCase {
	var out []corpusCase
	for _, topo := range []string{"line", "star"} {
		for _, alg := range []string{"orchestra", "count-hop"} {
			out = append(out, corpusCase{"net-" + topo + "-" + alg, Config{
				Algorithm: alg, N: 5,
				Topology: topo, Channels: 3,
				RhoNum: 1, RhoDen: 2, Beta: 3,
				Pattern: "bernoulli", Seed: 11, Rounds: 3000,
			}})
		}
	}
	// Grid and random want a composite channel count: 4 channels form a
	// 2×2 mesh, and β = 4 keeps the split exact again. The random graph
	// draws its edges from the same Config.Seed that seeds the pattern.
	for _, topo := range []string{"grid", "random"} {
		for _, alg := range []string{"orchestra", "count-hop"} {
			out = append(out, corpusCase{"net-" + topo + "-" + alg, Config{
				Algorithm: alg, N: 5,
				Topology: topo, Channels: 4,
				RhoNum: 1, RhoDen: 2, Beta: 4,
				Pattern: "bernoulli", Seed: 11, Rounds: 3000,
			}})
		}
	}
	return out
}

func TestNetworkGoldenTraceCorpus(t *testing.T) {
	checkCorpus(t, networkCorpusCases(), func(t *testing.T, cfg Config, tr *Trace) {
		// Budget-split invariant: every channel's recorded entry stream
		// independently respects the split (ρ/C, β/C) type.
		split, err := network.SplitType(adversary.T(cfg.RhoNum, cfg.RhoDen, cfg.Beta), cfg.Channels)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenario.CheckAdmissibleSplit(tr, split, cfg.Channels); err != nil {
			t.Errorf("golden trace violates the split contract: %v", err)
		}
	})
}

// TestNetworkGoldenTraceCorpusComplete pins the multi-channel corpus
// inventory: line and star × two algorithms.
func TestNetworkGoldenTraceCorpusComplete(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(traceDir, "net-*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(networkCorpusCases()); len(files) != want {
		t.Fatalf("network corpus has %d traces, want %d; regenerate with -update", len(files), want)
	}
}

// TestNetworkRunDeliversAcrossChannels is the end-to-end sanity check
// behind the corpus: under sustained cross-channel traffic a line
// network actually relays — packets reach destinations in other
// channels, and relays show up in the per-channel report.
func TestNetworkRunDeliversAcrossChannels(t *testing.T) {
	rep, err := Run(Config{
		Algorithm: "orchestra", N: 5, Topology: "line", Channels: 3,
		RhoNum: 1, RhoDen: 2, Beta: 3, Pattern: "uniform", Seed: 3, Rounds: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("network delivered nothing")
	}
	var relayed int64
	for _, c := range rep.PerChannel {
		relayed += c.Relayed
	}
	if relayed == 0 {
		t.Error("no packet was relayed across a channel boundary")
	}
	if !rep.Stable {
		t.Errorf("orchestra line at ρ=1/2 should be stable: %+v", rep)
	}
}

// TestNetworkTraceLogger: Config.Trace works on network runs (it used
// to be silently ignored) — per-channel labeled event lines within the
// configured window.
func TestNetworkTraceLogger(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Config{
		Algorithm: "orchestra", N: 4, Topology: "line", Channels: 2,
		RhoNum: 1, RhoDen: 2, Beta: 2, Rounds: 50,
		Trace: &buf, TraceUpTo: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"r0", "c0.s0", "c1.s0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "r4 ") {
		t.Errorf("trace ran past TraceUpTo:\n%s", out)
	}
}
