// Network: route across a whole network of shared channels — the
// paper's "networks modeled as multiple access channels" framing. A 4×4
// grid of channels each runs its own 5-station Orchestra replica set;
// a global (ρ=1/2, β=16) budget is split exactly across the 16 entry
// channels, and packets cross channel boundaries over deterministic
// gateway stations, one relay hop per round.
//
// The run is stepped twice — serial, then on four workers (at 0 the
// size rule would step 5-station channels serially) — to demonstrate
// the worker-count-independence contract: the two reports are identical
// to the last bit (DESIGN.md §13), which is why NetWorkers is not part
// of the config fingerprint.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"

	"earmac"
)

func main() {
	cfg := earmac.Config{
		Algorithm: "orchestra",
		N:         5,
		Topology:  "grid", // also: line, star, clique, random, custom
		Channels:  16,     // compiled as a 4×4 mesh
		RhoNum:    1, RhoDen: 2,
		Beta:    16, // splits exactly: each entry channel gets (ρ/16, 1)
		Pattern: "bernoulli",
		Seed:    7,
		Rounds:  50000,
	}

	cfg.NetWorkers = 1 // serial reference
	serial, err := earmac.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.NetWorkers = 4 // four workers, overriding the size rule
	parallel, err := earmac.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	if !bytes.Equal(a, b) {
		log.Fatal("worker-count independence violated — this is a bug")
	}
	fmt.Print(parallel.Summary())
	fmt.Println()

	var relayed int64
	for _, c := range parallel.PerChannel {
		relayed += c.Relayed
	}
	fmt.Printf("channels:        %d (grid)\n", parallel.Channels)
	fmt.Printf("relay hand-offs: %d\n", relayed)
	fmt.Printf("queue imbalance: %.3f (max channel peak / mean peak)\n", parallel.QueueImbalance)
	fmt.Println("⇒ serial and parallel reports are byte-identical")
}
