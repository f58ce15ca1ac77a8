package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// chaosProto acts randomly every round — on/off, listen/transmit, light
// or packet messages — to fuzz the simulator's resolution and accounting
// paths, including collisions, which the deterministic algorithms never
// produce.
type chaosProto struct {
	rng   *rand.Rand
	queue []mac.Packet
	txIdx int
}

func (p *chaosProto) Inject(pkt mac.Packet) { p.queue = append(p.queue, pkt) }

func (p *chaosProto) Act(round int64) Action {
	p.txIdx = -1
	switch p.rng.Intn(4) {
	case 0:
		return Off()
	case 1:
		return Listen()
	case 2: // light message
		return Transmit(mac.CtrlMsg(mac.MakeControl(4)))
	default:
		if len(p.queue) == 0 {
			return Listen()
		}
		p.txIdx = p.rng.Intn(len(p.queue))
		return Transmit(mac.PacketMsg(p.queue[p.txIdx]))
	}
}

func (p *chaosProto) Observe(round int64, fb mac.Feedback) {
	// On success, drop the transmitted packet whether or not it was
	// delivered (chaos mode loses undelivered packets deliberately; the
	// test disables conservation checking).
	if fb.Kind == mac.FbHeard && p.txIdx >= 0 {
		p.queue = append(p.queue[:p.txIdx], p.queue[p.txIdx+1:]...)
	}
	p.txIdx = -1
}

func (p *chaosProto) QueueLen() int { return len(p.queue) }

type chaosAdv struct {
	rng *rand.Rand
	n   int
}

func (a *chaosAdv) InjectAppend(round int64, buf []Injection) []Injection {
	for k := a.rng.Intn(3); k > 0; k-- {
		buf = append(buf, Injection{Station: a.rng.Intn(a.n), Dest: a.rng.Intn(a.n)})
	}
	return buf
}

// TestChaosAccountingConsistency drives random protocols and checks the
// simulator's channel accounting invariants hold for any behaviour:
// every round is exactly one of heard/silent/collision, deliveries never
// exceed heard rounds, and energy stays within [0, n].
func TestChaosAccountingConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		protos := make([]Protocol, n)
		for i := range protos {
			protos[i] = &chaosProto{rng: rand.New(rand.NewSource(seed + int64(i)))}
		}
		system := &System{
			Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n},
			Stations: protos,
		}
		sim := NewSim(system, &chaosAdv{rng: rng, n: n}, Options{})
		if err := sim.Run(2000); err != nil {
			return false
		}
		tr := sim.Tracker()
		if tr.HeardRounds+tr.SilentRounds+tr.CollisionRounds != tr.Rounds {
			return false
		}
		if tr.DeliveryRounds > tr.HeardRounds || tr.LightRounds > tr.HeardRounds {
			return false
		}
		if tr.Delivered > tr.Injected {
			return false
		}
		if tr.MaxEnergy > int64(n) || tr.MaxEnergy < 0 {
			return false
		}
		// Chaos transmits constantly from several stations: with n ≥ 3 we
		// expect all three channel outcomes to occur.
		if n >= 3 && (tr.CollisionRounds == 0 || tr.HeardRounds == 0 || tr.SilentRounds == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestChaosWithConservationCatchesLoss runs chaos protocols under the
// conservation checker, which must flag the deliberate packet loss.
func TestChaosWithConservationCatchesLoss(t *testing.T) {
	n := 4
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &chaosProto{rng: rand.New(rand.NewSource(int64(i) + 7))}
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n},
		Stations: protos,
	}
	// chaosProto does not implement PacketHolder: the checker must
	// report that rather than crash.
	sim := NewSim(system, &chaosAdv{rng: rand.New(rand.NewSource(3)), n: n}, Options{CheckEvery: 100})
	err := sim.Run(1000)
	if err == nil {
		t.Error("conservation check should fail for protocols without PacketHolder")
	}
}

// chaosRun drives n chaos protocols under the given energy cap for the
// given rounds with the given options and returns the flat counters and
// the recorded violations.
func chaosRun(t *testing.T, seed int64, n, energyCap int, rounds int64, opt Options) (metrics.Counters, []string) {
	t.Helper()
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &chaosProto{rng: rand.New(rand.NewSource(seed + int64(i)))}
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "chaos", EnergyCap: energyCap},
		Stations: protos,
	}
	tr := metrics.NewTracker()
	opt.Tracker = tr
	sim := NewSim(system, &chaosAdv{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: n}, opt)
	if sim.FastPath() == (opt.ForceChecked || opt.Tracer != nil) {
		t.Fatal("path selection does not match options")
	}
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr.Counters, tr.Violations
}

// TestChaosFastCheckedEquivalence replays identical chaos executions —
// including collisions, light messages, and deliberate packet loss, which
// the deterministic algorithms never produce — with no validator attached
// and with ForceChecked, and requires bit-identical flat counters. Half
// the seeds run under an energy cap of n−2, which the chaos stations
// breach, and the two runs must record identical violation lists.
func TestChaosFastCheckedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 2 + int(seed%5)
		energyCap := n
		if seed%2 == 0 {
			energyCap = n - 2
		}
		fast, fastV := chaosRun(t, seed, n, energyCap, 4000, Options{})
		checked, checkedV := chaosRun(t, seed, n, energyCap, 4000, Options{ForceChecked: true})
		if fast != checked {
			t.Errorf("seed %d: fast and checked counters differ:\nfast:    %+v\nchecked: %+v",
				seed, fast, checked)
		}
		if !slices.Equal(fastV, checkedV) {
			t.Errorf("seed %d: fast and checked violations differ:\nfast:    %q\nchecked: %q",
				seed, fastV, checkedV)
		}
		if energyCap < n && len(fastV) == 0 {
			t.Errorf("seed %d: cap %d of %d stations recorded no violation", seed, energyCap, n)
		}
	}
}
