package earmac

// Facade-level worker-count-independence suite: a network run with any
// NetWorkers value must be indistinguishable from the serial run — the
// marshalled Report and the recorded trace stream are compared byte
// for byte, across every topology kind and three algorithms. This is the
// contract that lets NetWorkers stay out of the Config fingerprint (a
// parallel run may serve a cached serial result, and vice versa).

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNetworkWorkerCountInvariance(t *testing.T) {
	const channels = 4
	record := func(t *testing.T, cfg Config) (report, trace []byte) {
		t.Helper()
		var buf bytes.Buffer
		cfg.RecordTo = &buf
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js, buf.Bytes()
	}
	for _, topo := range []string{"line", "star", "clique", "grid", "random"} {
		for _, alg := range []string{"orchestra", "count-hop", "aloha"} {
			t.Run(topo+"-"+alg, func(t *testing.T) {
				cfg := Config{
					Algorithm: alg, N: 5,
					Topology: topo, Channels: channels,
					RhoNum: 1, RhoDen: 2, Beta: channels,
					Pattern: "bernoulli", Seed: 13, Rounds: 1500,
					NetWorkers: 1,
				}
				if alg == "aloha" {
					// Jammed and duty-cycled. Each channel's stations
					// share a Layout whose on-set cache they write, so
					// under -race this checks no worker reaches
					// another channel's.
					cfg.K = 3
					cfg.JamRhoNum, cfg.JamRhoDen = 1, 8
					cfg.SleepAfterIdle, cfg.WakeEvery = 16, 8
				}
				wantRep, wantTrace := record(t, cfg)
				if alg == "aloha" && !(bytes.Contains(wantRep, []byte(`"jammed_rounds"`)) &&
					bytes.Contains(wantRep, []byte(`"sleep_rounds"`))) {
					t.Fatalf("aloha run lacks jammed or sleep rounds: %s", wantRep)
				}
				for _, workers := range []int{2, channels, 2 * channels} {
					cfg.NetWorkers = workers
					gotRep, gotTrace := record(t, cfg)
					if !bytes.Equal(gotRep, wantRep) {
						t.Errorf("workers=%d: report diverges from serial:\ngot  %s\nwant %s",
							workers, gotRep, wantRep)
					}
					if !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("workers=%d: recorded trace diverges from serial (%d bytes vs %d)",
							workers, len(gotTrace), len(wantTrace))
					}
				}
			})
		}
	}
}

// TestNetWorkersOutsideFingerprint pins the cache-key consequence of
// worker-count independence: configs differing only in NetWorkers share
// a fingerprint, so the service's content-addressed cache can hand a
// serial run's report to a parallel request byte-identically.
func TestNetWorkersOutsideFingerprint(t *testing.T) {
	base := Config{
		Algorithm: "orchestra", N: 5, Topology: "line", Channels: 3,
		RhoNum: 1, RhoDen: 2, Beta: 3, Rounds: 1000,
	}
	par := base
	par.NetWorkers = 8
	if base.Fingerprint() != par.Fingerprint() {
		t.Error("NetWorkers changed the fingerprint; parallelism must not fork cache keys")
	}
}
