// Command earmac-trace inspects recorded trace files. Its audit
// subcommand re-derives the adversarial budgets from the trace's own
// header config and verifies every stream the trace records against
// them:
//
//   - the entry injection stream against the (ρ, β) leaky-bucket
//     contract — per channel *and* network-wide against the effective
//     global type (ρ, max(β, C)) on network traces, since the split
//     burst is floored at 1 per channel (see network.SplitType);
//   - the jam stream (trace v3) against the jamming budget (ρ_j, β_j).
//
// The diff subcommand compares two traces structurally — header and
// config fields, the first diverging event, and the footer counter
// deltas — so a broken bit-identity contract (a replay that drifted, a
// skip-path divergence) is localized to the first round where the two
// runs disagree instead of a wall of JSONL:
//
// Usage:
//
//	earmac-trace audit run.trace.jsonl
//	earmac-trace audit traces/*.trace.jsonl
//	earmac-trace diff a.trace.jsonl b.trace.jsonl
//
// The exit status is 0 when every file passes (audit) or the traces are
// identical (diff), 1 on a budget violation or difference, 2 on usage
// or read errors.
package main

import (
	"fmt"
	"os"

	"earmac"
	"earmac/internal/adversary"
	"earmac/internal/network"
	"earmac/internal/scenario"
)

func main() {
	switch {
	case len(os.Args) >= 3 && os.Args[1] == "audit":
		failed := false
		for _, path := range os.Args[2:] {
			if err := audit(path); err != nil {
				fmt.Printf("%s: VIOLATION: %v\n", path, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	case len(os.Args) == 4 && os.Args[1] == "diff":
		if !diff(os.Args[2], os.Args[3]) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: earmac-trace audit <trace.jsonl>...")
		fmt.Fprintln(os.Stderr, "       earmac-trace diff <a.trace.jsonl> <b.trace.jsonl>")
		os.Exit(2)
	}
}

// audit verifies one trace file; read/config errors exit immediately
// (status 2), budget violations are returned for the caller to report.
func audit(path string) error {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	tr, err := earmac.ReadTrace(f)
	f.Close()
	var cfg earmac.Config
	if err == nil {
		cfg, err = earmac.ReplayConfig(tr) // read the header as earmac-sim -replay does
	}
	if err == nil {
		err = cfg.Validate()
	}
	// A recorder writes the defaulted config, so a header that leaves a
	// rate or the channel count the audit reads unset was not written
	// by one.
	if err == nil && (cfg.RhoNum == 0 || cfg.RhoDen == 0 || cfg.Beta == 0 ||
		(cfg.Topology != "" && cfg.Channels == 0) ||
		(cfg.JamRhoNum > 0 && (cfg.JamRhoDen == 0 || cfg.JamBeta == 0))) {
		err = fmt.Errorf("earmac: %w: the header config leaves a rate or the channel count unset", earmac.ErrBadTrace)
	}
	if err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	fmt.Printf("%s: version %d, n %d, channels %d, %d events\n",
		path, tr.Header.Version, tr.Header.N, tr.Header.Channels, len(tr.Events))

	typ := adversary.T(cfg.RhoNum, cfg.RhoDen, cfg.Beta)
	if cfg.Topology == "" {
		if err := scenario.CheckAdmissible(tr, typ); err != nil {
			return err
		}
		fmt.Printf("  entry stream: OK under (ρ %s, β %s)\n", typ.Rho, typ.Beta)
	} else {
		// The effective global bucket can overflow int64 where each
		// channel's does not (its cap is C times a channel's): the audit
		// cannot check such a budget, which is not a violation.
		split, err := network.SplitType(typ, cfg.Channels)
		eff := scenario.EffectiveGlobalType(split, cfg.Channels)
		if err == nil {
			err = adversary.CheckType(eff)
		}
		if err != nil {
			fail(fmt.Errorf("%s: %v", path, err))
		}
		if err := scenario.CheckAdmissibleSplit(tr, split, cfg.Channels); err != nil {
			return err
		}
		fmt.Printf("  entry stream: OK under per-channel (ρ %s, β %s) and effective global (ρ %s, β %s)\n",
			split.Rho, split.Beta, eff.Rho, eff.Beta)
	}

	jams := 0
	for _, ev := range tr.Events {
		if ev.Kind == scenario.KindJam {
			jams++
		}
	}
	switch {
	case jams == 0:
		fmt.Println("  jam stream: none")
	case cfg.JamRhoNum <= 0:
		return fmt.Errorf("%d jam events but the header config carries no jamming budget", jams)
	default:
		jt := adversary.T(cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta)
		if err := scenario.CheckJamAdmissible(tr, jt); err != nil {
			return err
		}
		fmt.Printf("  jam stream: %d jams OK under (ρ_j %s, β_j %s)\n", jams, jt.Rho, jt.Beta)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "earmac-trace:", err)
	os.Exit(2)
}
