package earmac

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// grid64 is a 64-cell grid of cheap runs, the size of a realistic
// Table-1-style sweep: 2 algorithms × 2 sizes × 4 rates × 2 burstiness ×
// 2 patterns.
func grid64() Grid {
	return Grid{
		Algorithms: []string{"orchestra", "count-hop"},
		Ns:         []int{4, 5},
		Rhos:       []Rho{{1, 3}, {1, 2}, {2, 3}, {1, 1}},
		Betas:      []int64{1, 2},
		Patterns:   []string{"uniform", "round-robin"},
		Base:       Config{Rounds: 2000, Seed: 100},
	}
}

func TestGridConfigsCrossProduct(t *testing.T) {
	cfgs := grid64().Configs()
	if len(cfgs) != 64 {
		t.Fatalf("got %d configs, want 64", len(cfgs))
	}
	if got := grid64().Cells(); got != 64 {
		t.Errorf("Cells() = %d, want 64", got)
	}
	// Eight dimensions of 256 values cross to 2^64 cells: Cells
	// saturates instead of wrapping around.
	huge := Grid{
		Algorithms: make([]string, 256), Ns: make([]int, 256), Ks: make([]int, 256),
		Rhos: make([]Rho, 256), Betas: make([]int64, 256), Patterns: make([]string, 256),
		Channels: make([]int, 256), Seeds: make([]int64, 256),
	}
	if got := huge.Cells(); got != math.MaxInt {
		t.Errorf("Cells() of a 2^64-cell grid = %d, want math.MaxInt", got)
	}
	// Deterministic order: algorithm outermost, pattern innermost.
	if cfgs[0].Algorithm != "orchestra" || cfgs[0].Pattern != "uniform" {
		t.Errorf("first cell %+v", cfgs[0])
	}
	if cfgs[1].Pattern != "round-robin" {
		t.Errorf("second cell should flip the innermost dimension: %+v", cfgs[1])
	}
	if cfgs[32].Algorithm != "count-hop" {
		t.Errorf("cell 32 should flip the outermost dimension: %+v", cfgs[32])
	}
	// Per-run seeds: base + index.
	for i, c := range cfgs {
		if c.Seed != 100+int64(i) {
			t.Fatalf("cell %d seed = %d, want %d", i, c.Seed, 100+int64(i))
		}
		if c.Rounds != 2000 {
			t.Fatalf("cell %d did not inherit Base.Rounds", i)
		}
	}
}

func TestGridConfigsEmptyDimensionsUseBase(t *testing.T) {
	cfgs := Grid{Base: Config{Algorithm: "rrw", N: 4}}.Configs()
	if len(cfgs) != 1 {
		t.Fatalf("got %d configs, want 1", len(cfgs))
	}
	if cfgs[0].Algorithm != "rrw" || cfgs[0].N != 4 || cfgs[0].Seed != 1 {
		t.Errorf("cell %+v", cfgs[0])
	}
}

// TestSuiteDeterministicAcrossWorkers is the contract behind -parallel:
// the same grid and seeds produce byte-identical JSON no matter how many
// workers execute it. Run with -race this also exercises the worker
// pool for data races on a ≥64-cell grid.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	suite := NewSuite(grid64())
	var blobs [][]byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := suite.Run(context.Background(), SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Cells != 64 || rep.Errors != 0 || rep.Skipped != 0 {
			t.Fatalf("workers=%d: report %d cells, %d errors, %d skipped",
				workers, rep.Cells, rep.Errors, rep.Skipped)
		}
		if rep.Stable+rep.Unstable != rep.Cells {
			t.Fatalf("workers=%d: verdicts don't partition the cells: %+v", workers, rep)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		blobs = append(blobs, blob)
	}
	for i := 1; i < len(blobs); i++ {
		if string(blobs[i]) != string(blobs[0]) {
			t.Errorf("suite JSON differs between worker counts")
		}
	}
}

func TestSuiteResultsInIndexOrder(t *testing.T) {
	suite := NewSuite(Grid{
		Algorithms: []string{"orchestra", "count-hop", "rrw"},
		Ns:         []int{4, 5},
		Base:       Config{Rounds: 1000},
	})
	rep, err := suite.Run(context.Background(), SuiteOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if !reflect.DeepEqual(res.Config, suite.Configs[i]) {
			t.Fatalf("result %d config mismatch", i)
		}
	}
}

func TestSuiteRecordsBadCellsAndKeepsGoing(t *testing.T) {
	suite := Suite{Configs: []Config{
		{Algorithm: "orchestra", N: 4, Rounds: 1000},
		{Algorithm: "no-such-algorithm", Rounds: 1000},
		{Algorithm: "count-hop", N: 4, Rounds: 1000},
	}}
	rep, err := suite.Run(context.Background(), SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1: %+v", rep.Errors, rep)
	}
	if rep.Results[1].Verdict != VerdictError || rep.Results[1].Error == "" {
		t.Errorf("bad cell recorded as %+v", rep.Results[1])
	}
	for _, i := range []int{0, 2} {
		if rep.Results[i].Verdict != VerdictStable {
			t.Errorf("cell %d verdict %q, want stable", i, rep.Results[i].Verdict)
		}
	}
}

func TestSuiteHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite := NewSuite(grid64())
	rep, err := suite.Run(ctx, SuiteOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Cells != 64 {
		t.Fatalf("partial report covers %d cells", rep.Cells)
	}
	if rep.Stable+rep.Unstable+rep.Errors+rep.Skipped != rep.Cells {
		t.Errorf("verdict counts don't partition the cells: %+v", rep)
	}
}

func TestSuiteOnResultSeesEveryCell(t *testing.T) {
	suite := NewSuite(Grid{
		Algorithms: []string{"orchestra"},
		Ns:         []int{4, 5, 6},
		Base:       Config{Rounds: 1000},
	})
	seen := make(chan int, len(suite.Configs))
	_, err := suite.Run(context.Background(), SuiteOptions{
		Workers:  2,
		OnResult: func(r SuiteResult) { seen <- r.Index },
	})
	if err != nil {
		t.Fatal(err)
	}
	close(seen)
	got := map[int]bool{}
	for i := range seen {
		got[i] = true
	}
	if len(got) != len(suite.Configs) {
		t.Errorf("OnResult saw %d distinct cells, want %d", len(got), len(suite.Configs))
	}
}

// TestGridChannelsDimension: the channel-count axis crosses like any
// other dimension and lands in each cell's Config.
func TestGridChannelsDimension(t *testing.T) {
	g := Grid{
		Algorithms: []string{"orchestra", "count-hop"},
		Channels:   []int{2, 3, 4},
		Base:       Config{Topology: "line", N: 5, Rounds: 500},
	}
	cfgs := g.Configs()
	if len(cfgs) != 6 {
		t.Fatalf("got %d cells, want 6", len(cfgs))
	}
	for i, cfg := range cfgs {
		if cfg.Topology != "line" {
			t.Errorf("cell %d lost the topology", i)
		}
		if want := []int{2, 3, 4}[i%3]; cfg.Channels != want {
			t.Errorf("cell %d channels = %d, want %d", i, cfg.Channels, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
}
