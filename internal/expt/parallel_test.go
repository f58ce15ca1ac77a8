package expt

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func cheapSpecs(t *testing.T) []Spec {
	t.Helper()
	var out []Spec
	for _, s := range Table1(Quick) {
		if s.ID == "T1.5" || s.ID == "T1.7" || s.ID == "T1.8" {
			out = append(out, s)
		}
	}
	if len(out) != 3 {
		t.Fatal("cheap spec subset missing")
	}
	return out
}

func TestRunConcurrentMatchesSerialOrder(t *testing.T) {
	specs := cheapSpecs(t)
	serial := make([]Outcome, len(specs))
	for i, s := range specs {
		o, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = o
	}
	conc, err := RunConcurrent(context.Background(), specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(conc) != len(serial) {
		t.Fatalf("got %d outcomes", len(conc))
	}
	for i := range serial {
		if conc[i].ID != specs[i].ID {
			t.Errorf("outcome %d is %s, want %s — ordering not deterministic", i, conc[i].ID, specs[i].ID)
		}
		if conc[i].Measured != serial[i].Measured || conc[i].OK != serial[i].OK {
			t.Errorf("%s: concurrent (%v, %v) != serial (%v, %v)",
				specs[i].ID, conc[i].Measured, conc[i].OK, serial[i].Measured, serial[i].OK)
		}
		if conc[i].Report.Rounds != specs[i].Rounds {
			t.Errorf("%s: embedded report covers %d rounds, want %d",
				specs[i].ID, conc[i].Report.Rounds, specs[i].Rounds)
		}
	}
}

func TestRunConcurrentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunConcurrent(ctx, cheapSpecs(t), 2)
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestOutcomeJSONCarriesSharedReport(t *testing.T) {
	o, err := Run(cheapSpecs(t)[0]) // T1.5
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, want := range []string{
		`"id":"T1.5"`, `"kind":"latency"`, `"rho":"1/4"`, `"ok":true`,
		`"report":{`, `"energy_cap":3`, `"max_queue"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("outcome JSON missing %s:\n%s", want, s)
		}
	}
}
