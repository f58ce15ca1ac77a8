package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/core"
	"earmac/internal/network"
)

// Shape of the network workload: Orchestra replicas on a 4×4 grid of
// channels at the paper's maximum global rate ρ = 1.
const (
	netChannels = 16
	netN        = 6
	netBeta     = 16
)

// netSeedStride separates the channels' pattern seeds, as the façade
// does for network runs.
const netSeedStride = 1_000_003

// netWorkload routes dense traffic across channels on the fast path
// (checks off, channels stepped serially), built the way earmac-bench's
// measureNet builds it: Compile, NewAdversary, New, then Run after a
// warm-up window.
type netWorkload struct {
	seed int64
	sz   size
	net  *network.Network
	sum  netSummary
	err  error
}

func newNetwork(seed int64, sz size) *netWorkload { return &netWorkload{seed: seed, sz: sz} }

// buildNetwork constructs the workload's network with the given
// channel-stepping worker count, recording spans around each layer call.
func buildNetwork(seed int64, workers int, tr *tracer) (*network.Network, error) {
	id := tr.begin("network.Compile", "setup", -1)
	topo, err := network.Compile(network.Spec{Kind: network.Grid, Channels: netChannels, N: netN})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	base := derive(seed, 0)
	pats := make([]adversary.Pattern, topo.Channels())
	for c := range pats {
		pats[c] = adversary.Uniform(topo.Stations(), base+int64(c)*netSeedStride)
	}
	id = tr.begin("network.NewAdversary", "setup", -1)
	adv, err := network.NewAdversary(topo, adversary.T(1, 1, netBeta), pats)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("network.New", "setup", -1)
	defer tr.end(id)
	return network.New(topo, func(ch int) (*core.System, error) {
		return orchestra.New(topo.StationsPerChannel())
	}, adv, network.Options{SampleEvery: -1, Workers: workers})
}

func (w *netWorkload) setup(tr *tracer) error {
	net, err := buildNetwork(w.seed, 1, tr)
	if err != nil {
		return err
	}
	w.net, w.err = net, nil
	id := tr.begin("Network.Run", "warmup", -1)
	defer tr.end(id)
	return net.Run(w.sz.netWarmup)
}

func (w *netWorkload) run(tr *tracer) {
	id := tr.begin("Network.Run", "run", -1)
	w.err = w.net.Run(w.sz.netRounds)
	tr.end(id)
	// Reading the results out is part of a run, as for any caller.
	w.sum = summarizeNetwork(w.net)
}

func (w *netWorkload) check(ck *checker) {
	if w.err != nil {
		ck.op("network/run", "", w.err.Error())
		return
	}
	sum := w.sum
	var problems []string
	if sum.Injected != sum.Delivered+sum.Dropped+sum.InFlight {
		problems = append(problems, fmt.Sprintf("conservation: injected %d != delivered %d + dropped %d + in flight %d",
			sum.Injected, sum.Delivered, sum.Dropped, sum.InFlight))
	}
	if len(sum.Violations) > 0 {
		problems = append(problems, fmt.Sprintf("%d model violations, first: %s", len(sum.Violations), sum.Violations[0]))
	}
	ck.op("network/run", sum.digest(), problems...)
}

func (w *netWorkload) close() {
	if w.net != nil {
		w.net.Close()
		w.net = nil
	}
}

// netSummary is the network run's deterministic output.
type netSummary struct {
	Rounds, Injected, Delivered, Dropped, InFlight int64
	MaxQueue, MaxLatency                           int64
	EnergySum                                      int64
	Relayed                                        []int64
	ChannelDelivered                               []int64
	Violations                                     []string
}

func summarizeNetwork(net *network.Network) netSummary {
	tr := net.Tracker()
	s := netSummary{
		Rounds: tr.Rounds, Injected: tr.Injected, Delivered: tr.Delivered, Dropped: tr.Dropped,
		InFlight: int64(net.InFlight()), MaxQueue: tr.MaxQueue, MaxLatency: tr.MaxLatency,
		EnergySum: tr.EnergySum, Violations: net.Violations(),
	}
	for c := 0; c < net.Topology().Channels(); c++ {
		s.Relayed = append(s.Relayed, net.Relayed(c))
		s.ChannelDelivered = append(s.ChannelDelivered, net.ChannelTracker(c).Delivered)
	}
	return s
}

func (s netSummary) relayed() int64 {
	var total int64
	for _, r := range s.Relayed {
		total += r
	}
	return total
}

func (s netSummary) digest() string {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err) // only integer and string fields
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])[:16]
}
