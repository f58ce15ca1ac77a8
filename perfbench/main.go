// Command perfbench is earmac's end-to-end benchmark. One invocation runs
// one workload through the program's public entry points, checks every
// output, and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload table1 --seed 1 --seconds 28 --trace 0
//
// Workloads: table1, network, frontier, serve (see NOTES.md for why each
// was chosen and which layers carry its time). With --trace 0 the run
// repeats whole passes of the workload for --seconds seconds with
// tracing off and reports the end-to-end metrics: medians over passes of
// wall_s, cpu_s, alloc_mb and setup_s, plus the process's max_rss_mb.
// With --trace 1 it instead records spans around the calls into each
// layer, on a traced pass of every workload, and reports the per-layer
// metrics together with the selected workload's tracing overhead.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the Go build cache inside the checkout and pins GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// maxProcs caps GOMAXPROCS, so a host with more cores runs the same
// scheduler configuration: one simulating goroutine plus room for the
// collector, or for the serve workload's client and server.
const maxProcs = 2

// defaultSeed is the seed whose outputs are pinned in digests.go.
const defaultSeed = 1

// spansDir is where the traced run writes its spans, relative to the
// working directory (the checkout root under run.sh).
const spansDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 28, "how long the timed passes run")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fail(fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadOrder, ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *traced))
	}
	if *seconds < 0 {
		fail(fmt.Errorf("--seconds must not be negative"))
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	ck := newChecker(*seed == defaultSeed)
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*workload, *seed, fullSize, spansDir, ck, os.Stdout)
	} else {
		res, err = timedRun(*workload, *seed, fullSize, *seconds, ck, os.Stdout)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
