package earmac

import (
	"errors"
	"math"
	"testing"
)

func TestValidateZeroConfig(t *testing.T) {
	// A zero Config validates: every field takes its documented default.
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"unknown algorithm", Config{Algorithm: "wat"}, ErrUnknownAlgorithm},
		{"unknown pattern", Config{Pattern: "wat"}, ErrUnknownPattern},
		{"rho > 1", Config{RhoNum: 3, RhoDen: 2}, ErrBadRate},
		{"rho zero", Config{RhoNum: 0, RhoDen: 5}, ErrBadRate},
		{"rho negative num", Config{RhoNum: -1, RhoDen: 2}, ErrBadRate},
		{"rho negative den", Config{RhoNum: 1, RhoDen: -2}, ErrBadRate},
		{"beta negative", Config{Beta: -3}, ErrBadBurst},
		{"n too small", Config{N: 1}, ErrBadSize},
		{"n too small for k-cycle", Config{Algorithm: "k-cycle", N: 2}, ErrBadSize},
		{"n above k-subsets max", Config{Algorithm: "k-subsets", N: 65}, ErrBadSize},
		{"k too small", Config{Algorithm: "k-subsets", N: 6, K: 1}, ErrBadCap},
		{"k above n (strict)", Config{Algorithm: "aloha", N: 4, K: 9}, ErrBadCap},
		{"negative rounds", Config{Rounds: -1}, ErrBadRounds},
		{"negative stop", Config{StopInjectionsAfter: -5}, ErrBadRounds},
		{"targeted src out of range", Config{Pattern: "single-target", N: 4, Src: 4}, ErrBadStation},
		{"targeted dest out of range", Config{Pattern: "single-target", N: 4, Dest: -1}, ErrBadStation},
		{"hot-source src out of range", Config{Pattern: "hot-source", N: 4, Src: 7}, ErrBadStation},
		{"unknown topology", Config{Topology: "ring"}, ErrBadTopology},
		{"channels without topology", Config{Channels: 3}, ErrBadTopology},
		{"links without topology", Config{Links: [][2]int{{0, 1}}}, ErrBadTopology},
		{"one channel", Config{Topology: "line", Channels: 1}, ErrBadTopology},
		{"links on named topology", Config{Topology: "star", Channels: 3, Links: [][2]int{{0, 1}}}, ErrBadTopology},
		{"custom without links", Config{Topology: "custom", Channels: 3}, ErrBadTopology},
		{"custom link out of range", Config{Topology: "custom", Channels: 2, Links: [][2]int{{0, 2}}}, ErrBadTopology},
		{"custom self-loop", Config{Topology: "custom", Channels: 2, Links: [][2]int{{1, 1}}}, ErrBadTopology},
		{"network src out of range", Config{Topology: "line", Channels: 2, N: 4, Pattern: "single-target", Src: 8}, ErrBadStation},
		// Buckets that do not fit int64 arithmetic: β over ρ's
		// denominator, the cap plus one round's gain, ρ split over the
		// channels, and the jamming budget.
		{"bucket cap overflows", Config{RhoNum: 1, RhoDen: 10, Beta: 1e18}, ErrBadBurst},
		{"bucket headroom overflows", Config{RhoNum: 1, RhoDen: 1, Beta: math.MaxInt64}, ErrBadBurst},
		{"split rate overflows", Config{Topology: "line", Channels: 16, RhoNum: 1, RhoDen: 1e18}, ErrBadRate},
		{"jam bucket overflows", Config{Algorithm: "aloha", JamRhoNum: 1, JamRhoDen: 10, JamBeta: 1e18}, ErrBadBurst},
		// The jam rate is checked against the jammable channels without
		// multiplying its denominator by them: a tiny rate whose product
		// would wrap is accepted, and the boundary is exact (want nil
		// means the config must pass).
		{"jam rate with a huge denominator", Config{Algorithm: "aloha", N: 4, Topology: "line", Channels: 4, JamRhoNum: 1, JamRhoDen: 1 << 62}, nil},
		{"jam rate above the channels", Config{Algorithm: "aloha", N: 4, Topology: "line", Channels: 4, JamRhoNum: 5, JamRhoDen: 1}, ErrBadRate},
		{"jam rate at the channels", Config{Algorithm: "aloha", N: 4, Topology: "line", Channels: 4, JamRhoNum: 4, JamRhoDen: 1}, nil},
		// β is bounded even where its bucket fits int64: round 0 would
		// inject the whole burst at once.
		{"beta at the bound", Config{RhoNum: 1, RhoDen: 3, Beta: MaxBeta}, nil},
		{"beta above the bound", Config{RhoNum: 1, RhoDen: 3, Beta: MaxBeta + 1}, ErrBadBurst},
		{"network beta above the bound", Config{Topology: "grid", Channels: 16, RhoNum: 1, RhoDen: 3, Beta: MaxBeta + 1}, ErrBadBurst},
		{"burst that fits int64", Config{RhoNum: 1, RhoDen: 3, Beta: 3e18}, ErrBadBurst},
		// An outage window must end within int64: a wrapped end would
		// make the schedule skip the window.
		{"outage end overflows", Config{Algorithm: "aloha", Outages: []Outage{{Channel: 0, From: 10, Rounds: math.MaxInt64}}}, ErrBadTopology},
		{"outage ending at the last round", Config{Algorithm: "aloha", Outages: []Outage{{Channel: 0, From: 10, Rounds: math.MaxInt64 - 10}}}, nil},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsClampedK(t *testing.T) {
	// k-cycle and k-clique clamp over-range k instead of rejecting it; the
	// registry metadata records that (KStrict unset), so Validate and Run
	// both accept k > n for them.
	cfg := Config{Algorithm: "k-cycle", N: 7, K: 9, Rounds: 2000}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("clamped k rejected: %v", err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.EnergyCap != 4 { // clamp 2k ≤ n+1 at n=7
		t.Errorf("clamped cap = %d, want 4", rep.EnergyCap)
	}
}

func TestRunPropagatesTypedErrors(t *testing.T) {
	if _, err := Run(Config{Algorithm: "nope"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("Run unknown algorithm: %v", err)
	}
	if _, err := Run(Config{RhoNum: 5, RhoDen: 2}); !errors.Is(err, ErrBadRate) {
		t.Errorf("Run bad rate: %v", err)
	}
}

func TestRegistryMetadataMatchesInstances(t *testing.T) {
	// Every registry entry's declared capabilities must agree with what an
	// instantiated system reports — metadata answers must never lie.
	const n, k = 6, 3
	for _, entry := range AllAlgorithms() {
		rep, err := Run(Config{Algorithm: entry.Name, N: n, K: k, Rounds: 512, DisableChecks: true})
		if err != nil {
			t.Errorf("%s: %v", entry.Name, err)
			continue
		}
		if entry.UsesK && !entry.KStrict {
			// Clamping algorithms (k-cycle, k-clique) may settle on a
			// feasible cap at or below the requested k.
			if rep.EnergyCap > entry.CapFor(n, k) {
				t.Errorf("%s: instance cap %d above requested %d", entry.Name, rep.EnergyCap, entry.CapFor(n, k))
			}
		} else if rep.EnergyCap != entry.CapFor(n, k) {
			t.Errorf("%s: CapFor = %d, instance cap %d", entry.Name, entry.CapFor(n, k), rep.EnergyCap)
		}
		if rep.PlainPacket != entry.PlainPacket || rep.Direct != entry.Direct || rep.Oblivious != entry.Oblivious {
			t.Errorf("%s: meta flags (%v,%v,%v) != instance (%v,%v,%v)", entry.Name,
				entry.PlainPacket, entry.Direct, entry.Oblivious,
				rep.PlainPacket, rep.Direct, rep.Oblivious)
		}
	}
}

func TestPatternMetadataComplete(t *testing.T) {
	if got := len(AllPatterns()); got != len(Patterns()) {
		t.Errorf("AllPatterns has %d entries, Patterns %d", got, len(Patterns()))
	}
	for _, p := range AllPatterns() {
		if p.Summary == "" {
			t.Errorf("pattern %s missing summary", p.Name)
		}
	}
	if p, ok := PatternInfo("single-target"); !ok || !p.Targeted {
		t.Error("single-target should be a targeted pattern")
	}
	if p, ok := PatternInfo("uniform"); !ok || !p.Randomized || p.Targeted {
		t.Error("uniform should be randomized and untargeted")
	}
}

// TestValidateNetworkConfigs: valid network spellings pass, including
// the global station space for targeted patterns and the connected
// custom graph surfaced at Run time.
func TestValidateNetworkConfigs(t *testing.T) {
	ok := []Config{
		{Topology: "line"}, // channels default to 2
		{Topology: "star", Channels: 4},
		{Topology: "clique", Channels: 3},
		{Topology: "custom", Channels: 3, Links: [][2]int{{0, 1}, {1, 2}}},
		{Topology: "line", Channels: 2, N: 4, Pattern: "single-target", Src: 1, Dest: 7}, // dest in channel 1
	}
	for _, cfg := range ok {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
	// A disconnected custom graph passes metadata validation but fails
	// loudly at Run (routing needs reachability).
	cfg := Config{Topology: "custom", Channels: 4, Links: [][2]int{{0, 1}, {2, 3}}, Rounds: 10}
	if _, err := Run(cfg); !errors.Is(err, ErrBadTopology) {
		t.Errorf("disconnected graph: Run returned %v, want ErrBadTopology", err)
	}
}
