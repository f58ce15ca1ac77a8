package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"earmac"
	"earmac/internal/report"
)

// The frontier grid: earmac-sweep -mode frontier's default axes.
var (
	frontierJams   = [][2]int64{{0, 1}, {1, 8}, {1, 4}} // ρ_j, outer axis
	frontierSleeps = []int64{0, 128, 32, 8}             // sleep-after-idle, inner axis, loosest first
)

// frontierBase is the cell every frontier config starts from: duty-cycled
// aloha on a line of 16 channels at a sparse entry rate, on the fast path
// as earmac-sweep runs cells.
func frontierBase(seed int64, rounds int64) earmac.Config {
	return earmac.Config{
		Algorithm: "aloha", N: 24, K: 3,
		Topology: "line", Channels: 16,
		RhoNum: 1, RhoDen: 1024, Beta: 1,
		Pattern: "uniform",
		Rounds:  rounds, Seed: derive(seed, 0),
		Lenient: true, DisableChecks: true,
		NetWorkers: 1,
	}
}

// frontierCells crosses jam rate (outer) with sleep-after-idle (inner)
// the way earmac-sweep's frontier mode does.
func frontierCells(seed, rounds int64) []earmac.Config {
	base := frontierBase(seed, rounds)
	var cells []earmac.Config
	for _, jam := range frontierJams {
		for _, idle := range frontierSleeps {
			c := base
			if jam[0] > 0 {
				c.JamRhoNum, c.JamRhoDen, c.JamBeta = jam[0], jam[1], 1
			}
			if idle > 0 {
				c.SleepAfterIdle, c.WakeEvery = idle, 64
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// frontier runs the energy/jamming frontier grid as one earmac.Suite with
// one worker: the network layer used idle instead of busy, where the
// quiescence engine, the duty wrapper and the jammer carry the time.
type frontier struct {
	seed  int64
	sz    size
	suite earmac.Suite
	rep   earmac.SuiteReport
	raw   []byte
	err   error
}

func newFrontier(seed int64, sz size) *frontier { return &frontier{seed: seed, sz: sz} }

func (w *frontier) setup(tr *tracer) error {
	warm := earmac.Suite{Configs: frontierCells(w.seed, w.sz.frontierRounds/warmupDiv)}
	rep, err := warm.Run(context.Background(), earmac.SuiteOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("warm-up: %d cells failed", rep.Errors)
	}
	w.suite = earmac.Suite{Configs: frontierCells(w.seed, w.sz.frontierRounds)}
	return nil
}

func (w *frontier) run(tr *tracer) {
	root := tr.begin("earmac.Suite.Run", "suite", -1)
	opts := earmac.SuiteOptions{Workers: 1}
	if tr != nil {
		// With one worker the cells run back to back, so a cell spans
		// from the previous completion to its own.
		last := time.Now()
		opts.OnResult = func(res earmac.SuiteResult) {
			now := time.Now()
			tr.add("cell", fmt.Sprintf("cell%d", res.Index), root, last, now)
			last = now
		}
	}
	w.rep, w.err = w.suite.Run(context.Background(), opts)
	tr.end(root)
	id := tr.begin("json.Marshal", "suite", -1)
	w.raw, _ = json.Marshal(w.rep) // SuiteReport holds only marshalable fields
	tr.end(id)
}

func (w *frontier) check(ck *checker) {
	if w.err != nil {
		ck.op("frontier/suite", "", w.err.Error())
		return
	}
	// Energy must not rise as duty-cycling tightens within a jam group.
	energyOK := make([]bool, len(w.rep.Results))
	for g := range frontierJams {
		ok := true
		for j := 1; j < len(frontierSleeps); j++ {
			prev := w.rep.Results[g*len(frontierSleeps)+j-1].Report.MeanEnergy
			if w.rep.Results[g*len(frontierSleeps)+j].Report.MeanEnergy > prev {
				ok = false
			}
		}
		for j := range frontierSleeps {
			energyOK[g*len(frontierSleeps)+j] = ok
		}
	}
	for i, res := range w.rep.Results {
		var problems []string
		if res.Verdict == earmac.VerdictError || res.Verdict == earmac.VerdictSkipped {
			problems = append(problems, fmt.Sprintf("verdict %s: %s", res.Verdict, res.Error))
		}
		r := res.Report
		if r.Injected != r.Delivered+r.Dropped+r.FinalQueue {
			problems = append(problems, fmt.Sprintf("conservation: injected %d != delivered %d + dropped %d + pending %d",
				r.Injected, r.Delivered, r.Dropped, r.FinalQueue))
		}
		if !energyOK[i] {
			problems = append(problems, "mean energy rises down the jam group's sleep axis")
		}
		sum := sha256.Sum256(report.CanonicalJSON(res))
		ck.op(fmt.Sprintf("frontier/cell%d", i), hex.EncodeToString(sum[:])[:16], problems...)
	}
	sum := sha256.Sum256(w.raw)
	ck.op("frontier/report", hex.EncodeToString(sum[:])[:16])
}

func (w *frontier) close() {}

// frontierJammed reports whether cell i of the grid runs a jammer.
func frontierJammed(i int) bool { return frontierJams[i/len(frontierSleeps)][0] > 0 }
