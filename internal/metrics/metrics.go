// Package metrics collects the performance measures the paper reports:
// queue sizes (stability), packet delays (latency), and energy use, plus
// channel-utilization counters useful for diagnosing algorithms. A single
// Tracker is fed by the simulator once per round and once per delivery.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// QueueSample is one sampled point of the total-queue time series.
type QueueSample struct {
	Round int64
	Queue int64
}

// Counters is the flat, comparable block of hot-path statistics. Every
// field is a plain accumulator updated by simple stores and adds — no
// allocation, no indirection — so the simulator's steady-state round loop
// can feed it allocation-free; the rich views (percentiles, slopes,
// stability heuristics) are derived on read by Tracker methods. Being a
// plain comparable struct, two runs can be checked for identical totals
// with ==.
type Counters struct {
	Rounds    int64
	Injected  int64
	Delivered int64

	MaxQueue      int64
	MaxQueueRound int64
	FinalQueue    int64

	MaxLatency int64
	LatencySum int64
	// LatHist[b] counts deliveries with latency in [2^b, 2^(b+1)).
	LatHist [64]int64

	EnergySum int64
	MaxEnergy int64

	SilentRounds    int64 // nothing transmitted
	HeardRounds     int64 // exactly one transmitter
	CollisionRounds int64 // two or more transmitters
	LightRounds     int64 // heard, but control bits only
	DeliveryRounds  int64 // heard and the packet reached its destination
	ControlBits     int64 // total control bits on heard messages

	// Disruption counters (ISSUE 8). A jammed or outaged round is also a
	// CollisionRounds round — the disruption counters say why. Dropped
	// counts packets that died mid-route: an uncontended heard round
	// under a direct algorithm whose (duty-cycled) destination was off,
	// so the transmitter retired a packet nobody received. The omitempty
	// tags keep every committed trace footer and report byte-stable for
	// runs without jamming, outages, or duty-cycling.
	JammedRounds int64 `json:"JammedRounds,omitempty"`
	OutageRounds int64 `json:"OutageRounds,omitempty"`
	Dropped      int64 `json:"Dropped,omitempty"`
}

// Tracker accumulates simulation statistics. The zero value is not
// usable; call NewTracker.
type Tracker struct {
	// SampleEvery controls the queue time-series resolution: one sample is
	// kept every SampleEvery rounds (default 1024 in NewTracker). 0
	// disables the time series (hot loops that only need the flat
	// counters).
	SampleEvery int64

	Counters

	Violations []string // model violations (energy cap, plain-packet, ...)

	samples []QueueSample

	// Per-station peaks, enabled by TrackStations: fairness diagnostics
	// for the starvation phenomena of Table 1's latency-∞ rows.
	stationMax []int64
}

// TrackStations enables per-station queue peak tracking for n stations.
func (t *Tracker) TrackStations(n int) { t.stationMax = make([]int64, n) }

// ObserveStationQueue records station i's queue length l at the end of
// a round (no-op unless TrackStations was called). A station whose
// queue did not move since its last record may be left out.
func (t *Tracker) ObserveStationQueue(i, l int) {
	if t.stationMax != nil && int64(l) > t.stationMax[i] {
		t.stationMax[i] = int64(l)
	}
}

// StationMaxQueues returns the per-station queue peaks (nil unless
// TrackStations was called).
func (t *Tracker) StationMaxQueues() []int64 { return t.stationMax }

// QueueImbalance returns the ratio of the largest per-station peak to the
// mean peak — 1 means perfectly balanced load, large values indicate one
// station absorbed the brunt. Returns 0 unless TrackStations was called
// and some packet was queued.
func (t *Tracker) QueueImbalance() float64 { return QueueImbalance(t.stationMax) }

// QueueImbalance returns the ratio of the largest per-station queue
// peak to the mean peak over every station in peaks (one slice per
// tracker), or 0 when no packet was ever queued.
func QueueImbalance(peaks ...[]int64) float64 {
	var sum, max int64
	count := 0
	for _, ps := range peaks {
		for _, m := range ps {
			sum += m
			if m > max {
				max = m
			}
		}
		count += len(ps)
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(count))
}

// NewTracker returns a Tracker sampling the queue curve every 1024 rounds.
func NewTracker() *Tracker {
	return &Tracker{SampleEvery: 1024}
}

// ObserveRound records one completed round.
func (t *Tracker) ObserveRound(round int64, queue int64, energy int) {
	t.Rounds++
	t.EnergySum += int64(energy)
	if int64(energy) > t.MaxEnergy {
		t.MaxEnergy = int64(energy)
	}
	if queue > t.MaxQueue {
		t.MaxQueue = queue
		t.MaxQueueRound = round
	}
	t.Counters.FinalQueue = queue
	if t.SampleEvery > 0 && round%t.SampleEvery == 0 {
		t.samples = append(t.samples, QueueSample{Round: round, Queue: queue})
	}
}

// ObserveQuietSpan records m consecutive quiescent rounds [from,
// from+m) in closed form: the total queue is zero throughout, the
// per-round energies sum to energySum with per-round maximum
// maxEnergy. It is bit-identical to m ObserveRound calls with queue 0
// — a zero queue never displaces MaxQueue/MaxQueueRound, and samples
// land on exactly the rounds the per-round loop would have sampled.
//
//earmac:hotpath
func (t *Tracker) ObserveQuietSpan(from, m, energySum int64, maxEnergy int) {
	t.Rounds += m
	t.EnergySum += energySum
	if int64(maxEnergy) > t.MaxEnergy {
		t.MaxEnergy = int64(maxEnergy)
	}
	t.Counters.FinalQueue = 0
	if t.SampleEvery > 0 {
		first := from + (t.SampleEvery-from%t.SampleEvery)%t.SampleEvery
		for r := first; r < from+m; r += t.SampleEvery {
			t.samples = append(t.samples, QueueSample{Round: r, Queue: 0})
		}
	}
}

// ObserveInjections records packets injected this round.
func (t *Tracker) ObserveInjections(count int) { t.Injected += int64(count) }

// ObserveDelivery records one delivered packet by its delay.
func (t *Tracker) ObserveDelivery(latency int64) {
	t.Delivered++
	if latency > t.MaxLatency {
		t.MaxLatency = latency
	}
	t.LatencySum += latency
	t.LatHist[bucketOf(latency)]++
}

func bucketOf(latency int64) int {
	if latency <= 0 {
		return 0
	}
	return bits.Len64(uint64(latency)) - 1
}

// Violate records a model violation.
func (t *Tracker) Violate(format string, args ...any) {
	if len(t.Violations) < 100 {
		t.Violations = append(t.Violations, fmt.Sprintf(format, args...))
	}
}

// Pending returns the packets still in flight: injected minus delivered
// minus dropped (a dropped packet left the system without arriving, so
// it no longer occupies any queue).
func (t *Tracker) Pending() int64 { return t.Injected - t.Delivered - t.Dropped }

// MeanLatency returns the average delivery delay.
func (t *Tracker) MeanLatency() float64 {
	if t.Delivered == 0 {
		return 0
	}
	return float64(t.LatencySum) / float64(t.Delivered)
}

// LatencyPercentile returns an upper bound for the p-quantile of delivery
// delay from the power-of-two histogram: the top of the bucket containing
// the quantile. p is clamped into [0,1] — a negative or NaN p behaves as
// 0 (the smallest observed bucket's top), p > 1 behaves as 1 (the bucket
// of the largest observed latency) — so out-of-range input can never
// push the quantile target past Delivered and silently fall through to
// an unrelated figure.
func (t *Tracker) LatencyPercentile(p float64) int64 {
	if t.Delivered == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(t.Delivered)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < len(t.LatHist); b++ {
		cum += t.LatHist[b]
		if cum >= target {
			if b == 63 {
				return math.MaxInt64
			}
			return (int64(1) << uint(b+1)) - 1
		}
	}
	// Unreachable: with p clamped, target <= Delivered, and the histogram
	// sums exactly to Delivered, so the loop always returns. Fail loudly
	// rather than fall back to an unrelated figure.
	panic("metrics: latency histogram inconsistent with Delivered")
}

// MeanEnergy returns the average number of switched-on stations per round.
func (t *Tracker) MeanEnergy() float64 {
	if t.Rounds == 0 {
		return 0
	}
	return float64(t.EnergySum) / float64(t.Rounds)
}

// Samples returns the sampled queue-size curve.
func (t *Tracker) Samples() []QueueSample { return t.samples }

// QueueSlope estimates the long-run growth rate of the total queue in
// packets per round by least-squares over the second half of the sampled
// curve (the first half is discarded as warm-up). A stable execution has
// slope ≈ 0; the impossibility adversaries force a clearly positive slope.
func (t *Tracker) QueueSlope() float64 {
	s := t.samples
	if len(s) < 4 {
		return 0
	}
	s = s[len(s)/2:]
	var n, sumX, sumY, sumXY, sumXX float64
	for _, pt := range s {
		x, y := float64(pt.Round), float64(pt.Queue)
		n++
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / den
}

// GrowthRatio compares the mean queue in the last quarter of the run to
// the mean in the second quarter. Values near 1 indicate a bounded queue;
// values well above 1 indicate growth. Returns 1 when there is not enough
// data or the early mean is zero.
func (t *Tracker) GrowthRatio() float64 {
	s := t.samples
	if len(s) < 8 {
		return 1
	}
	q := len(s) / 4
	early := s[q : 2*q]
	late := s[3*q:]
	mean := func(pts []QueueSample) float64 {
		var sum float64
		for _, p := range pts {
			sum += float64(p.Queue)
		}
		return sum / float64(len(pts))
	}
	e := mean(early)
	if e == 0 {
		if mean(late) == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return mean(late) / e
}

// LooksStable applies the growth heuristic used by the experiment harness:
// bounded queues keep the late/early ratio below 1.5 and the slope near 0.
func (t *Tracker) LooksStable() bool {
	return t.GrowthRatio() < 1.5
}

// Summary renders a human-readable digest.
func (t *Tracker) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d injected=%d delivered=%d pending=%d\n",
		t.Rounds, t.Injected, t.Delivered, t.Pending())
	fmt.Fprintf(&b, "queue: max=%d (round %d) final=%d slope=%.6f growth=%.2f\n",
		t.MaxQueue, t.MaxQueueRound, t.Counters.FinalQueue, t.QueueSlope(), t.GrowthRatio())
	fmt.Fprintf(&b, "latency: max=%d mean=%.1f p50<=%d p99<=%d\n",
		t.MaxLatency, t.MeanLatency(), t.LatencyPercentile(0.5), t.LatencyPercentile(0.99))
	fmt.Fprintf(&b, "energy: mean=%.3f max=%d\n", t.MeanEnergy(), t.MaxEnergy)
	fmt.Fprintf(&b, "channel: heard=%d silent=%d collisions=%d light=%d deliveries=%d ctrlbits=%d\n",
		t.HeardRounds, t.SilentRounds, t.CollisionRounds, t.LightRounds, t.DeliveryRounds, t.ControlBits)
	if len(t.Violations) > 0 {
		fmt.Fprintf(&b, "VIOLATIONS (%d):\n", len(t.Violations))
		for _, v := range t.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
