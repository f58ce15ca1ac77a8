// Command earmac-table regenerates the paper's Table 1 — the summary of
// performance bounds and impossibility results that constitutes its
// evaluation — by running every row as a simulation and printing the
// measured figures next to the claimed bounds. Rows run concurrently on
// a bounded worker pool; output order is always the table order.
//
// Usage:
//
//	earmac-table              # quick horizons (~seconds per row)
//	earmac-table -full        # 4× horizons
//	earmac-table -parallel 1  # serial, for timing individual rows
//	earmac-table -json        # rows as JSON with the shared Report schema
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"earmac/internal/expt"
)

func main() {
	var (
		full     = flag.Bool("full", false, "run 4× longer horizons")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		jsonOut  = flag.Bool("json", false, "emit rows as JSON (shared Report schema) instead of the table")
	)
	flag.Parse()

	scale := expt.Quick
	if *full {
		scale = expt.Full
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	outs, err := expt.RunConcurrent(ctx, expt.Table1(scale), *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earmac-table:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outs); err != nil {
			fmt.Fprintln(os.Stderr, "earmac-table:", err)
			os.Exit(1)
		}
	} else {
		fmt.Println("Reproduction of Table 1, \"Energy Efficient Adversarial Routing in Shared Channels\" (SPAA 2019)")
		fmt.Println()
		if err := expt.Render(outs, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "earmac-table:", err)
			os.Exit(1)
		}
	}

	bad := 0
	for _, o := range outs {
		if !o.OK {
			bad++
		}
	}
	if !*jsonOut {
		fmt.Println()
		fmt.Printf("%d/%d rows reproduced\n", len(outs)-bad, len(outs))
	}
	if bad > 0 {
		os.Exit(1)
	}
}
