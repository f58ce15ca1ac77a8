package expt

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"earmac/internal/broadcast"
	"earmac/internal/core"
	"earmac/internal/ratio"
	"earmac/internal/report"
)

func TestPaperBoundFormulas(t *testing.T) {
	if got := OrchestraQueueBound(6, 2); got != 434 {
		t.Errorf("OrchestraQueueBound(6,2) = %v, want 434", got)
	}
	if got := CountHopLatencyBound(6, 2, ratio.New(1, 2)); got != 152 {
		t.Errorf("CountHopLatencyBound = %v, want 152", got)
	}
	if got := KCycleLatencyBound(7, 2); got != 238 {
		t.Errorf("KCycleLatencyBound = %v, want 238", got)
	}
	if got := KCliqueLatencyBound(8, 4, 2); got != 160 {
		t.Errorf("KCliqueLatencyBound = %v, want 160", got)
	}
	if got := KSubsetsQueueBound(6, 3, 2); got != 1520 {
		t.Errorf("KSubsetsQueueBound = %v, want 1520 (2·20·38)", got)
	}
	// Adjust-Window: (18·64·lg²4 + 4)/(1/2) with lg4 = ⌈log₂5⌉ = 3.
	want := (18*64*9 + 4.0) * 2
	if got := AdjustWindowLatencyBound(4, 2, ratio.New(1, 2)); math.Abs(got-want) > 1e-9 {
		t.Errorf("AdjustWindowLatencyBound = %v, want %v", got, want)
	}
}

func TestTable1SpecsComplete(t *testing.T) {
	specs := Table1(Quick)
	if len(specs) != 11 {
		t.Fatalf("Table1 has %d specs, want 11 (9 rows, T1.2 in three variants)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Errorf("duplicate spec ID %s", s.ID)
		}
		seen[s.ID] = true
		if s.Build == nil || s.Rounds <= 0 || s.PaperClaim == "" {
			t.Errorf("spec %s incomplete", s.ID)
		}
	}
	for _, want := range []string{"T1.1", "T1.2a", "T1.2b", "T1.2c", "T1.3", "T1.4", "T1.5", "T1.6", "T1.7", "T1.8", "T1.9"} {
		if !seen[want] {
			t.Errorf("missing spec %s", want)
		}
	}
}

func TestFullScaleQuadruplesRounds(t *testing.T) {
	q := Table1(Quick)
	f := Table1(Full)
	for i := range q {
		if f[i].Rounds != 4*q[i].Rounds {
			t.Errorf("%s: full rounds %d != 4× quick %d", q[i].ID, f[i].Rounds, q[i].Rounds)
		}
	}
}

func TestRunSingleRowReproduces(t *testing.T) {
	// Smoke-run the cheapest row end to end (T1.5, k-Cycle).
	specs := Table1(Quick)
	var spec Spec
	for _, s := range specs {
		if s.ID == "T1.5" {
			spec = s
		}
	}
	o, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !o.OK {
		t.Errorf("T1.5 did not reproduce: measured %v vs bound %v, stable=%v",
			o.Measured, o.Bound, o.Stable)
	}
	if o.Delivered == 0 || o.MeanEnergy <= 0 {
		t.Error("outcome missing measurements")
	}
}

func TestRunUnstableRow(t *testing.T) {
	specs := Table1(Quick)
	for _, s := range specs {
		if s.ID != "T1.6" {
			continue
		}
		o, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !o.OK {
			t.Errorf("T1.6 did not reproduce: stable=%v slope=%v", o.Stable, o.QueueSlope)
		}
	}
}

func TestRunAndRenderTable(t *testing.T) {
	// Render just two rows to keep the test fast.
	specs := Table1(Quick)
	subset := []Spec{}
	for _, s := range specs {
		if s.ID == "T1.5" || s.ID == "T1.7" {
			subset = append(subset, s)
		}
	}
	outs, err := RunConcurrent(context.Background(), subset, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(outs, &buf); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	rendered := buf.String()
	for _, want := range []string{"ID", "T1.5", "T1.7", "REPRODUCED"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table missing %q:\n%s", want, rendered)
		}
	}
}

func TestRenderRowMismatch(t *testing.T) {
	o := Outcome{
		Spec: Spec{ID: "X", Label: "fake", N: 4, Kind: KindLatency,
			Bound: 10, PaperClaim: "c", Rho: ratio.New(1, 2)},
		Report: report.Report{MaxLatency: 99},
		OK:     false,
	}
	row := renderRow(o)
	if !strings.Contains(row, "MISMATCH") || !strings.Contains(row, "max lat 99") {
		t.Errorf("row = %q", row)
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	_, err := Run(Spec{ID: "bad", Build: func() (*core.System, error) {
		return nil, fmt.Errorf("nope")
	}})
	if err == nil {
		t.Error("build error swallowed")
	}
}

func TestRunKindStable(t *testing.T) {
	o, err := Run(Spec{
		ID: "S", Label: "rrw stability smoke",
		N: 4, Rho: ratio.New(1, 2), Beta: 1,
		Rounds: 20000, Kind: KindStable,
		Build: func() (*core.System, error) { return broadcast.NewRRWSystem(4), nil },
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.OK || !o.Stable {
		t.Errorf("KindStable outcome: %+v", o)
	}
}

func TestKindStrings(t *testing.T) {
	if KindStable.String() != "stable" || KindUnstable.String() != "unstable" ||
		KindLatency.String() != "latency" || KindQueueBound.String() != "queue-bound" {
		t.Error("Kind strings wrong")
	}
}
