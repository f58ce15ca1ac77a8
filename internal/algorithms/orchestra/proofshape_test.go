package orchestra

// Proof-shape test for Theorem 1. The proof partitions seasons into
// sparse and dense intervals (a season is dense when the queues at its
// start exceed D = n³−2n+1) and shows that during a dense interval only
// pre-big conductors can produce light rounds — at most (n−1)² each,
// (n−1)³ in total — no matter how long the interval lasts. This test
// drives a long dense interval and verifies the light-round budget is
// respected, i.e. the implementation realizes the mechanism the proof
// relies on, not just the final bound.

import (
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// lightCounter tracks light rounds per dense interval, classifying
// seasons by the queue size at their first round.
type lightCounter struct {
	n         int
	sys       *core.System
	threshold int64

	inDense       bool
	currentLights int64
	maxLights     int64
	denseSeasons  int64
	lightsNow     int64 // lights in the season being accumulated
}

func (lc *lightCounter) TraceRound(round int64, actions []core.Action, fb mac.Feedback, delivered []mac.Packet) {
	seasonLen := int64(lc.n - 1)
	if round%seasonLen == 0 {
		// Season boundary: classify the season that starts now.
		var queued int64
		for _, st := range lc.sys.Stations {
			queued += int64(st.QueueLen())
		}
		dense := queued > lc.threshold
		if dense {
			if !lc.inDense {
				lc.currentLights = 0
			}
			lc.inDense = true
			lc.denseSeasons++
		} else {
			if lc.inDense && lc.currentLights > lc.maxLights {
				lc.maxLights = lc.currentLights
			}
			lc.inDense = false
		}
	}
	if lc.inDense && fb.Kind == mac.FbHeard && fb.Msg.IsLight() {
		lc.currentLights++
		if lc.currentLights > lc.maxLights {
			lc.maxLights = lc.currentLights
		}
	}
}

func TestDenseIntervalLightRoundBudget(t *testing.T) {
	// n=5: D = 116, light budget (n−1)³ = 64. A β-burst of 200 packets
	// into one station opens a dense interval; ρ=1 keeps it dense for the
	// rest of the run. The number of light rounds inside the interval
	// must stay below the budget even though the interval spans tens of
	// thousands of rounds.
	n := 5
	sys, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	D := int64(n*n*n - 2*n + 1)
	lc := &lightCounter{n: n, sys: sys, threshold: D}

	pat := adversary.AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
		for i := 0; i < budget; i++ {
			buf = append(buf, core.Injection{Station: 0, Dest: 1 + (int(round)+i)%(n-1)})
		}
		return buf
	})
	adv := adversary.New(adversary.T(1, 1, 200), pat)
	tr := metrics.NewTracker()
	sim := core.NewSim(sys, adv, core.Options{Strict: true, Tracker: tr, Tracer: lc})
	if err := sim.Run(60000); err != nil {
		t.Fatal(err)
	}
	if lc.denseSeasons < 1000 {
		t.Fatalf("dense interval too short to be meaningful: %d dense seasons (max queue %d, D=%d)",
			lc.denseSeasons, tr.MaxQueue, D)
	}
	budget := int64((n - 1) * (n - 1) * (n - 1))
	if lc.maxLights > budget {
		t.Errorf("a dense interval contained %d light rounds, above the proof's budget (n−1)³ = %d",
			lc.maxLights, budget)
	}
	t.Logf("dense seasons: %d; worst dense-interval light rounds: %d (budget %d)",
		lc.denseSeasons, lc.maxLights, budget)
}
