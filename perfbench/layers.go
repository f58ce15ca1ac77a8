package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"earmac"
	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/expt"
	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/pktq"
	"earmac/internal/ratio"
	"earmac/internal/report"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads where it should
// not move anything.
type layerMetric struct {
	name, unit, better string
	moves, still       string
}

// perLayer lists every per-layer metric the traced run reports.
var perLayer = func() []layerMetric {
	var ms []layerMetric
	for _, s := range expt.Table1(expt.Quick) {
		ms = append(ms, layerMetric{"expt.row_s." + s.ID, "s", "lower", "table1 wall_s, cpu_s", "network, frontier, serve"})
	}
	ms = append(ms, []layerMetric{
		{"core.checked_ns_per_station_round", "ns", "lower", "table1 cpu_s; serve wall_s via misses", "network, frontier"},
		{"core.fast_ns_per_station_round", "ns", "lower", "network, frontier cpu_s", "table1, serve"},
		{"core.checked_overhead", "x", "lower", "table1 cpu_s (the one-round-loop refactor must hold it)", "network, frontier"},
		{"adversary.ns_per_round", "ns", "lower", "table1 cpu_s", "network"},
		{"pktq.ns_per_op", "ns", "lower", "table1 cpu_s", "frontier"},
		{"network.compile_ms", "ms", "lower", "network setup_s", "table1, serve"},
		{"network.new_ms", "ms", "lower", "network setup_s", "table1, serve"},
		{"network.ns_per_channel_round", "ns", "lower", "network wall_s, cpu_s", "table1, serve"},
		{"network.relays_per_delivery", "ratio", "lower", "network cpu_s (a work count: fixed by the inputs)", "frontier"},
		{"network.allocs_per_round", "count", "lower", "network alloc_mb", "-"},
		{"pool.team_speedup", "x", "higher", "none: channels step serially on the timed path", "all"},
		{"pool.team_cpu_per_wall", "x", "lower", "none: channels step serially on the timed path", "all"},
		{"skip.span_cells_s", "s", "lower", "frontier wall_s, cpu_s", "table1 (strict), network (dense)"},
		{"skip.tick_cells_s", "s", "lower", "frontier wall_s, cpu_s", "table1 (strict), network (dense)"},
		{"skip.speedup", "x", "higher", "frontier cpu_s", "table1, network"},
		{"duty.sleep_rounds", "count", "higher", "none: a work count that speed-only changes must not move", "all"},
		{"duty.delivery_ratio", "ratio", "higher", "none: a work count that speed-only changes must not move", "all"},
		{"network.jammed_rounds", "count", "lower", "none: a work count that speed-only changes must not move", "all"},
		{"earmac.fingerprint_us", "us", "lower", "serve wall_s via hits (hit_p50_ms)", "table1, network, frontier"},
		{"earmac.suite_json_ms", "ms", "lower", "frontier wall_s", "-"},
		{"earmac.suite_self_ms", "ms", "lower", "frontier wall_s (Suite runner outside its cells)", "-"},
		{"service.http_floor_us", "us", "lower", "serve wall_s via hits (hit_p50_ms)", "-"},
		{"service.miss_overhead_ms", "ms", "lower", "serve wall_s via misses (miss_p50_ms)", "-"},
		{"service.hit_ratio", "ratio", "higher", "none: fixed by the schedule", "-"},
		{"hit_p50_ms", "ms", "lower", "serve wall_s", "-"},
		{"hit_p90_ms", "ms", "lower", "serve wall_s", "-"},
		{"miss_p50_ms", "ms", "lower", "serve wall_s", "-"},
		{"miss_p90_ms", "ms", "lower", "serve wall_s", "-"},
		{"service.hit_p99_ms", "ms", "lower", "none: the tail, for information", "-"},
		{"hit_samples", "count", "higher", "none: sample count of the hit percentiles", "-"},
		{"miss_samples", "count", "higher", "none: sample count of the miss percentiles", "-"},
		{"scenario.trace_kb", "KiB", "lower", "serve wall_s, alloc_mb via misses (recording)", "-"},
		{"scenario.read_ms", "ms", "lower", "none timed (the read side of traces)", "-"},
		{"scenario.replay_ms", "ms", "lower", "none timed (the read side of traces)", "-"},
		{"report.encode_us", "us", "lower", "serve wall_s via misses", "-"},
	}...)
	for _, w := range workloadOrder {
		still := "network (~0 MiB per pass)"
		if w == "network" {
			still = "-"
		}
		ms = append(ms, layerMetric{"runtime.gc_cycles." + w, "count", "lower", w + " cpu_s, alloc_mb", still})
		// The network pass allocates next to nothing, so no collection
		// runs in it and its pause time would read 0 on every run.
		if w != "network" {
			ms = append(ms, layerMetric{"runtime.gc_pause_ms." + w, "ms", "lower", w + " wall_s", still})
		}
		ms = append(ms, layerMetric{"runtime.mallocs." + w, "count", "lower", w + " cpu_s, alloc_mb", still})
	}
	ms = append(ms, layerMetric{"trace.overhead_s", "s", "lower", "none: end-to-end runs trace nothing", "all"})
	return ms
}()

// overheadPairs is how many untraced/traced pass pairs of the selected
// workload measure its tracing overhead, as the difference of medians.
const overheadPairs = 3

// tracedRun measures the selected workload's tracing overhead and runs a
// traced pass of every workload, with the layer probes each one needs,
// to report every per-layer metric. The spans of the last traced pass of
// each workload are written to a JSONL file in spansDir.
func tracedRun(name string, seed int64, sz size, spansDir string, ck *checker, out io.Writer) (result, error) {
	vals := map[string]float64{}
	var all []tracedSpan
	for _, wl := range workloadOrder {
		pairs := 1
		if wl == name {
			pairs = overheadPairs
		}
		var plain, traced []float64
		var w workload
		var tr *tracer
		var ps passStats
		for k := 0; k < pairs; k++ {
			if k > 0 { // done with the previous traced pass
				w.check(ck)
				w.close()
			}
			if wl == name {
				u := workloads[wl](seed, sz)
				p, err := measurePass(u, nil)
				if err != nil {
					return result{}, fmt.Errorf("%s set-up: %w", wl, err)
				}
				u.check(ck)
				u.close()
				plain = append(plain, p.wall)
			}
			w, tr = workloads[wl](seed, sz), newTracer()
			var err error
			if ps, err = measurePass(w, tr); err != nil {
				return result{}, fmt.Errorf("%s set-up: %w", wl, err)
			}
			traced = append(traced, ps.wall)
		}
		if wl == name {
			vals["trace.overhead_s"] = median(traced) - median(plain)
			fmt.Fprintf(out, "perfbench %s: %d pass pairs, median traced %.4f s, untraced %.4f s, tracing overhead %+.4f s\n",
				wl, pairs, median(traced), median(plain), vals["trace.overhead_s"])
		}
		w.check(ck)
		vals["runtime.gc_cycles."+wl] = float64(ps.gcCycles)
		vals["runtime.gc_pause_ms."+wl] = ms(ps.gcPause)
		vals["runtime.mallocs."+wl] = float64(ps.mallocs)
		switch w := w.(type) {
		case *table1:
			traceTable1(w, tr, ck, vals)
		case *netWorkload:
			traceNetwork(w, seed, sz, tr, ck, vals)
		case *frontier:
			traceFrontier(w, sz, tr, ck, vals)
		case *serveWorkload:
			traceServe(w, tr, ck, vals)
		}
		w.close()
		for _, s := range tr.snapshot() {
			all = append(all, tracedSpan{wl, s})
		}
	}

	fmt.Fprintf(out, "perfbench traced run: seed %d, GOMAXPROCS %d\n", seed, maxProcs)
	res := result{Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// An operation the metric needs failed; the run is incorrect.
			ck.op("trace/"+m.name, "", "not measured")
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-36s %14.6g %-5s moves: %s; no change on: %s\n", m.name, v, m.unit, m.moves, m.still)
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, all); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(all), path)
	ck.finish(&res, out)
	return res, nil
}

// tracedSpan tags a span with the workload that recorded it.
type tracedSpan struct {
	Workload string `json:"workload"`
	span
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []tracedSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traceTable1 derives the row and round-loop metrics from the traced
// pass, then runs the fast-path twin of every row and drives the
// oblivious adversaries and the packet queue alone.
func traceTable1(w *table1, tr *tracer, ck *checker, vals map[string]float64) {
	var checkedS, fastS, stationRounds float64
	for _, s := range byName(tr.snapshot(), "expt.Run") {
		vals["expt.row_s."+s.Op] = s.dur().Seconds()
		checkedS += s.dur().Seconds()
	}
	for i, s := range w.specs {
		stationRounds += float64(s.Rounds) * float64(s.N)
		sys, adv, err := specSystem(s)
		if err != nil {
			ck.op("table1/fast-twin", "", err.Error())
			continue
		}
		trk := metrics.NewTracker()
		trk.SampleEvery = max(s.Rounds/512, 1)
		sim := core.NewSim(sys, adv, core.Options{Tracker: trk})
		id := tr.begin("core.Sim.Run", s.ID, -1)
		err = sim.Run(s.Rounds)
		tr.end(id)
		fastS += tr.dur(id).Seconds()
		var problems []string
		if err != nil {
			problems = append(problems, err.Error())
		} else if o := w.outs[i]; trk.Injected != o.Injected || trk.Delivered != o.Delivered || trk.MaxQueue != o.MaxQueue {
			problems = append(problems, fmt.Sprintf("%s: fast path injected/delivered/max queue %d/%d/%d, checked path %d/%d/%d",
				s.ID, trk.Injected, trk.Delivered, trk.MaxQueue, o.Injected, o.Delivered, o.MaxQueue))
		}
		ck.op("table1/fast-twin", "", problems...)
	}
	vals["core.checked_ns_per_station_round"] = checkedS * 1e9 / stationRounds
	vals["core.fast_ns_per_station_round"] = fastS * 1e9 / stationRounds
	vals["core.checked_overhead"] = checkedS / fastS

	// The oblivious adversaries alone, through their injection call.
	var advRounds int64
	id := tr.begin("adversary.InjectAppend", "oblivious", -1)
	for _, s := range w.specs {
		if s.Adv != nil {
			continue
		}
		adv := adversary.New(adversary.Type{Rho: s.Rho, Beta: ratio.FromInt(s.Beta)}, adversary.Uniform(s.N, s.Seed+1))
		var buf []core.Injection
		for r := int64(0); r < s.Rounds; r++ {
			buf = adv.InjectAppend(r, buf[:0])
		}
		advRounds += s.Rounds
	}
	tr.end(id)
	vals["adversary.ns_per_round"] = float64(tr.dur(id)) / float64(advRounds)

	// The packet queue at the depths the deepest rows reached.
	deep := make([]int, len(w.specs))
	for i := range deep {
		deep[i] = i
	}
	sort.Slice(deep, func(a, b int) bool { return w.outs[deep[a]].MaxQueue > w.outs[deep[b]].MaxQueue })
	var ops int64
	id = tr.begin("pktq.mix", "deep-rows", -1)
	for _, i := range deep[:deepRows] {
		ops += pktqMix(w.specs[i].N, int(max(w.outs[i].MaxQueue, 1)), pktqSteps)
	}
	tr.end(id)
	vals["pktq.ns_per_op"] = float64(tr.dur(id)) / float64(max(ops, 1))
}

// deepRows is how many of the deepest Table-1 queues the packet-queue
// probe reproduces, pktqSteps how many push+pop steps it runs at each.
const (
	deepRows  = 3
	pktqSteps = 400000
)

// specSystem builds a row's system and adversary the way expt.Run does.
func specSystem(s expt.Spec) (*core.System, core.Adversary, error) {
	sys, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	if s.Adv != nil {
		return sys, s.Adv(sys), nil
	}
	return sys, adversary.New(adversary.Type{Rho: s.Rho, Beta: ratio.FromInt(s.Beta)},
		adversary.Uniform(sys.N(), s.Seed+1)), nil
}

// pktqMix fills a queue to depth and then runs steps rounds of one push
// plus one of a front pop, a destination pop or a removal from the
// middle, returning the number of queue operations.
func pktqMix(nDests, depth, steps int) int64 {
	q := pktq.New(nDests)
	rng := rand.New(rand.NewSource(int64(depth)))
	var next int64
	push := func() {
		q.Push(mac.Packet{ID: next, Dest: rng.Intn(nDests)})
		next++
	}
	for q.Len() < depth {
		push()
	}
	ops := int64(depth)
	for i := 0; i < steps; i++ {
		push()
		switch i % 3 {
		case 0:
			q.PopFront()
		case 1:
			if _, ok := q.PopFrontTo(rng.Intn(nDests)); !ok {
				q.PopFront()
			}
		default:
			if !q.Remove(next - int64(depth/2)) {
				q.PopFront()
			}
		}
		ops += 2
	}
	return ops
}

// traceNetwork derives the network metrics from the traced pass and
// times the per-round worker team against serial stepping on identical
// inputs.
func traceNetwork(w *netWorkload, seed int64, sz size, tr *tracer, ck *checker, vals map[string]float64) {
	spans := tr.snapshot()
	vals["network.compile_ms"] = totalSeconds(byName(spans, "network.Compile")) * 1e3
	vals["network.new_ms"] = totalSeconds(byName(spans, "network.New")) * 1e3
	for _, s := range byName(spans, "Network.Run") {
		if s.Op == "run" {
			vals["network.ns_per_channel_round"] = float64(s.dur()) / float64(sz.netRounds*netChannels)
		}
	}
	vals["network.relays_per_delivery"] = float64(w.sum.relayed()) / float64(w.sum.Delivered)
	vals["network.allocs_per_round"] = vals["runtime.mallocs.network"] / float64(sz.netRounds)

	var sums [2]netSummary
	var wall, cpu [2]float64
	for i, workers := range []int{1, 2} {
		net, err := buildNetwork(seed, workers, nil)
		if err == nil {
			err = net.Run(sz.netWarmup)
		}
		if err != nil {
			ck.op("network/team-twin", "", err.Error())
			return
		}
		c0 := cpuSeconds()
		id := tr.begin("Network.Run", fmt.Sprintf("workers%d", workers), -1)
		err = net.Run(sz.netRounds / 2)
		tr.end(id)
		wall[i] = tr.dur(id).Seconds()
		cpu[i] = cpuSeconds() - c0
		sums[i] = summarizeNetwork(net)
		net.Close()
		if err != nil {
			ck.op("network/team-twin", "", err.Error())
			return
		}
	}
	if sums[0].digest() != sums[1].digest() {
		ck.op("network/team-twin", "", "2-worker stepping changed the network's outputs")
	} else {
		ck.op("network/team-twin", "")
	}
	vals["pool.team_speedup"] = wall[0] / wall[1]
	vals["pool.team_cpu_per_wall"] = cpu[1] / wall[1]
}

// frontierTwinCell is the cell of each jam group whose NoSkip twin the
// traced run times (sleep-after-idle 32).
const frontierTwinCell = 2

// traceFrontier splits the traced Suite's cells into the engine's two
// tiers, reads the report's work counts, and times NoSkip twins.
func traceFrontier(w *frontier, sz size, tr *tracer, ck *checker, vals map[string]float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "cell":
			var i int
			fmt.Sscanf(s.Op, "cell%d", &i)
			if frontierJammed(i) {
				vals["skip.tick_cells_s"] += s.dur().Seconds()
			} else {
				vals["skip.span_cells_s"] += s.dur().Seconds()
			}
		case "earmac.Suite.Run":
			vals["earmac.suite_self_ms"] = ms(self[s.ID])
		case "json.Marshal":
			vals["earmac.suite_json_ms"] = ms(s.dur())
		}
	}
	var sleep, delivered, injected, jammed int64
	for _, res := range w.rep.Results {
		sleep += res.Report.SleepRounds
		delivered += res.Report.Delivered
		injected += res.Report.Injected
		jammed += res.Report.JammedRounds
	}
	vals["duty.sleep_rounds"] = float64(sleep)
	vals["duty.delivery_ratio"] = float64(delivered) / float64(max(injected, 1))
	vals["network.jammed_rounds"] = float64(jammed)

	var skipS, noskipS float64
	for g := range frontierJams {
		cfg := w.suite.Configs[g*len(frontierSleeps)+frontierTwinCell]
		cfg.Rounds = sz.frontierRounds / 10
		var reps [2][]byte
		for k, noskip := range []bool{false, true} {
			cfg.NoSkip = noskip
			id := tr.begin("earmac.Run", fmt.Sprintf("group%d-noskip=%v", g, noskip), -1)
			rep, err := earmac.Run(cfg)
			tr.end(id)
			if err != nil {
				ck.op("frontier/noskip-twin", "", err.Error())
				return
			}
			reps[k] = report.CanonicalJSON(rep)
			if d := tr.dur(id).Seconds(); noskip {
				noskipS += d
			} else {
				skipS += d
			}
		}
		if !bytes.Equal(reps[0], reps[1]) {
			ck.op("frontier/noskip-twin", "", "NoSkip changed the report")
		} else {
			ck.op("frontier/noskip-twin", "")
		}
	}
	vals["skip.speedup"] = noskipS / skipS
}

// healthzProbes is how many GET /v1/healthz round trips time the HTTP
// floor; replaySamples how many recorded traces are read and replayed.
const (
	healthzProbes = 1000
	replaySamples = 16
)

// traceServe derives the request metrics from the traced pass and
// probes the layers under a request: the HTTP floor, Fingerprint, the
// in-process run a miss wraps, report encoding and the trace read side.
func traceServe(w *serveWorkload, tr *tracer, ck *checker, vals map[string]float64) {
	hits := 0
	for _, r := range w.resps {
		if r.disposition == "hit" {
			hits++
		}
	}
	vals["service.hit_ratio"] = float64(hits) / float64(len(w.sched.reqs))
	vals["hit_p50_ms"] = quantile(w.hitMs, 0.5)
	vals["hit_p90_ms"] = quantile(w.hitMs, 0.9)
	vals["service.hit_p99_ms"] = quantile(w.hitMs, 0.99)
	vals["miss_p50_ms"] = quantile(w.missMs, 0.5)
	vals["miss_p90_ms"] = quantile(w.missMs, 0.9)
	vals["hit_samples"] = float64(len(w.hitMs))
	vals["miss_samples"] = float64(len(w.missMs))

	var floor []float64
	for i := 0; i < healthzProbes; i++ {
		r := w.do(http.MethodGet, "/v1/healthz", nil, "healthz")
		if r.err != nil || r.status != http.StatusOK {
			ck.op("serve/healthz", "", fmt.Sprintf("status %d, err %v", r.status, r.err))
			continue
		}
		floor = append(floor, float64(r.latency)/1e3)
	}
	vals["service.http_floor_us"] = median(floor)

	id := tr.begin("earmac.Config.Fingerprint", "schedule", -1)
	for _, c := range w.sched.configs {
		c.Fingerprint()
	}
	tr.end(id)
	vals["earmac.fingerprint_us"] = float64(tr.dur(id)) / 1e3 / float64(len(w.sched.configs))

	// The same configs in-process, without recording: what a miss wraps.
	var direct []float64
	for _, c := range w.sched.configs {
		id := tr.begin("earmac.Run", "direct", -1)
		_, err := earmac.Run(c)
		tr.end(id)
		if err != nil {
			ck.op("serve/direct", "", err.Error())
			continue
		}
		direct = append(direct, ms(tr.dur(id)))
	}
	vals["service.miss_overhead_ms"] = vals["miss_p50_ms"] - median(direct)

	// Re-encode the served reports.
	var encodeUs []float64
	for _, raw := range w.missBodies() {
		var rep earmac.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			ck.op("serve/encode", "", err.Error())
			continue
		}
		t0 := time.Now()
		again := report.CanonicalJSON(rep)
		encodeUs = append(encodeUs, float64(time.Since(t0))/1e3)
		if !bytes.Equal(again, raw) {
			ck.op("serve/encode", "", "re-encoding a served report changed its bytes")
		} else {
			ck.op("serve/encode", "")
		}
	}
	vals["report.encode_us"] = mean(encodeUs)

	var kb, readMs, replayMs []float64
	jobs, first := w.missJobs(), w.missBodies()
	for k := 0; k < replaySamples && k < len(jobs); k++ {
		c := k * len(jobs) / replaySamples
		size, read, run, err := w.replay(jobs[c], first[c])
		if err != nil {
			ck.op("serve/replay", "", fmt.Sprintf("config %d: %v", c, err))
			continue
		}
		ck.op("serve/replay", "")
		kb = append(kb, float64(size)/1024)
		readMs = append(readMs, ms(read))
		replayMs = append(replayMs, ms(run))
	}
	vals["scenario.trace_kb"] = mean(kb)
	vals["scenario.read_ms"] = mean(readMs)
	vals["scenario.replay_ms"] = mean(replayMs)
}
