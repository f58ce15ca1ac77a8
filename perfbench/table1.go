package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"earmac/internal/expt"
	"earmac/internal/report"
)

// table1 runs the paper's whole evaluation: the eleven expt.Table1(Quick)
// rows, one after another on one goroutine, through expt.Run — the
// strict, conservation-checked loop earmac-table runs. The seed varies
// the injection patterns of the rows driven by an oblivious adversary;
// the adaptive adversaries (Lemma-1, LeastOn, LeastPair) take none.
type table1 struct {
	seed  int64
	sz    size
	specs []expt.Spec
	outs  []expt.Outcome
	errs  []error
}

func newTable1(seed int64, sz size) *table1 { return &table1{seed: seed, sz: sz} }

// table1Specs generates the rows for a seed.
func table1Specs(seed int64, sz size) []expt.Spec {
	specs := expt.Table1(expt.Quick)
	for i := range specs {
		specs[i].Seed = derive(seed, uint64(i))
		specs[i].Rounds /= sz.table1Div
	}
	return specs
}

// warmupDiv shortens the warm-up copy of a pass's work.
const warmupDiv = 16

func (w *table1) setup(tr *tracer) error {
	w.specs = table1Specs(w.seed, w.sz)
	w.outs = make([]expt.Outcome, len(w.specs))
	w.errs = make([]error, len(w.specs))
	for _, s := range w.specs {
		s.Rounds /= warmupDiv
		if _, err := expt.Run(s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *table1) run(tr *tracer) {
	pass := tr.begin("table1.pass", "pass", -1)
	for i, s := range w.specs {
		id := tr.begin("expt.Run", s.ID, pass)
		w.outs[i], w.errs[i] = expt.Run(s)
		tr.end(id)
	}
	tr.end(pass)
}

func (w *table1) check(ck *checker) {
	for i, s := range w.specs {
		name := "table1/" + s.ID
		if w.errs[i] != nil {
			ck.op(name, "", w.errs[i].Error())
			continue
		}
		o := w.outs[i]
		var problems []string
		if !o.OK {
			problems = append(problems, fmt.Sprintf("verdict not reproduced (%s, measured %g, bound %g)", o.Kind, o.Measured, o.Bound))
		}
		ck.op(name, outcomeDigest(o), problems...)
	}
}

func (w *table1) close() {}

// outcomeDigest hashes a row's deterministic outputs: the verdict, the
// headline measurement and the full report.
func outcomeDigest(o expt.Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %v %v\n", o.ID, o.OK, o.Measured)
	h.Write(report.CanonicalJSON(o.Report))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
