package earmac

import (
	"fmt"

	"earmac/internal/adversary"
	"earmac/internal/network"
	"earmac/internal/registry"

	// Built-in algorithms self-register from their init functions; linking
	// them here populates the registry for every façade user.
	_ "earmac/internal/algorithms/adjwin"
	_ "earmac/internal/algorithms/counthop"
	_ "earmac/internal/algorithms/kclique"
	_ "earmac/internal/algorithms/kcycle"
	_ "earmac/internal/algorithms/ksubsets"
	_ "earmac/internal/algorithms/orchestra"
	_ "earmac/internal/algorithms/randmac"
	_ "earmac/internal/broadcast"
)

// Typed configuration errors. Config.Validate, Run, and the registries
// wrap exactly one of these per failure; test with errors.Is.
var (
	ErrUnknownAlgorithm = registry.ErrUnknownAlgorithm
	ErrUnknownPattern   = registry.ErrUnknownPattern
	ErrBadRate          = registry.ErrBadRate
	ErrBadBurst         = registry.ErrBadBurst
	ErrBadSize          = registry.ErrBadSize
	ErrBadCap           = registry.ErrBadCap
	ErrBadRounds        = registry.ErrBadRounds
	ErrBadStation       = registry.ErrBadStation
	ErrBadTrace         = registry.ErrBadTrace
	// ErrBadTopology marks an invalid network-of-channels spec: unknown
	// kind, too few channels, malformed or disconnecting custom links,
	// or channel fields set without a topology.
	ErrBadTopology = registry.ErrBadTopology
	// ErrConflict marks options that are individually valid but mutually
	// exclusive — e.g. a replayed trace combined with a scenario source
	// the trace already supplies, or a submission the serving layer
	// cannot honour while draining.
	ErrConflict = registry.ErrConflict
)

// AlgorithmMeta declares an algorithm's capabilities: energy cap, the
// paper's plain-packet / direct / oblivious taxonomy flags, and the valid
// (n, k) ranges. See the registry package for field documentation.
type AlgorithmMeta = registry.AlgorithmMeta

// AlgorithmEntry is one algorithm-registry entry: a name plus its
// metadata.
type AlgorithmEntry = registry.Algorithm

// SystemBuilder constructs a system for n stations under energy-cap
// parameter k (ignored by fixed-cap algorithms).
type SystemBuilder = registry.Builder

// PatternMeta declares what an injection pattern consumes (seed,
// src/dest targeting).
type PatternMeta = adversary.PatternMeta

// PatternParams parameterizes a pattern builder.
type PatternParams = adversary.PatternParams

// PatternBuilder constructs an injection pattern from its parameters.
type PatternBuilder = adversary.PatternBuilder

// PatternEntry is one pattern-registry entry.
type PatternEntry = adversary.PatternEntry

// RegisterAlgorithm makes an algorithm available to Run, Suite, and the
// CLIs under the given name. Call it from an init function; it panics on
// a duplicate name, an empty name, or a nil builder.
func RegisterAlgorithm(name string, meta AlgorithmMeta, build SystemBuilder) {
	registry.RegisterAlgorithm(name, meta, build)
}

// RegisterPattern makes an injection pattern available under the given
// name. Call it from an init function; it panics on a duplicate name, an
// empty name, or a nil builder.
func RegisterPattern(name string, meta PatternMeta, build PatternBuilder) {
	adversary.RegisterPattern(name, meta, build)
}

// Algorithms lists the available algorithm names, sorted.
func Algorithms() []string { return registry.Algorithms() }

// AlgorithmInfo returns the registry entry for one algorithm.
func AlgorithmInfo(name string) (AlgorithmEntry, bool) { return registry.Lookup(name) }

// AllAlgorithms returns every algorithm entry sorted by name, for
// capability filtering without instantiating systems.
func AllAlgorithms() []AlgorithmEntry { return registry.All() }

// Patterns lists the available injection pattern names, sorted.
func Patterns() []string { return adversary.Patterns() }

// Topologies lists the supported network topology kinds, sorted. Any of
// them (via Config.Topology) turns a run into a network of channels.
func Topologies() []string { return network.Kinds() }

// PatternInfo returns the registry entry for one pattern.
func PatternInfo(name string) (PatternEntry, bool) { return adversary.PatternInfo(name) }

// AllPatterns returns every pattern entry sorted by name.
func AllPatterns() []PatternEntry { return adversary.AllPatterns() }

// Validate reports whether the configuration can run, after applying the
// same defaults Run applies. Every failure wraps one of the typed errors
// (ErrUnknownAlgorithm, ErrBadRate, …). Validation is metadata-only: no
// system is instantiated, so builder-level constraints that depend on
// instantiation (e.g. the k-subsets C(n,k) thread cap) surface from Run
// instead.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

// MaxBeta bounds β on one channel or a network: a full bucket (round 0
// starts full) injects ⌊β+ρ⌋ packets at once. It is 1024× the largest
// committed β; a run at the bound peaks at about 250–310 MiB.
const MaxBeta = 1 << 20

// validate checks an already-defaulted config.
func (c Config) validate() error {
	alg, ok := registry.Lookup(c.Algorithm)
	if !ok {
		return fmt.Errorf("earmac: %w %q (have %v)", ErrUnknownAlgorithm, c.Algorithm, Algorithms())
	}
	if err := alg.CheckNK(c.Algorithm, c.N, c.K); err != nil {
		return fmt.Errorf("earmac: %w", err)
	}
	stations := c.N // the station id space targeted patterns draw from
	if c.Topology == "" {
		if c.Channels != 0 {
			return fmt.Errorf("earmac: %w: channels = %d without a topology (set Topology to one of %v)",
				ErrBadTopology, c.Channels, Topologies())
		}
		if len(c.Links) != 0 {
			return fmt.Errorf("earmac: %w: links given without a topology (set Topology to %q)",
				ErrBadTopology, network.Custom)
		}
	} else {
		spec := network.Spec{Kind: c.Topology, Channels: c.Channels, N: c.N, Links: c.Links, Seed: c.Seed}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("earmac: %w", err)
		}
		stations = c.N * c.Channels
	}
	checkPattern := func(name string) error {
		pat, ok := adversary.PatternInfo(name)
		if !ok {
			return fmt.Errorf("earmac: %w %q (have %v)", ErrUnknownPattern, name, Patterns())
		}
		if pat.Targeted {
			if c.Src < 0 || c.Src >= stations {
				return fmt.Errorf("earmac: %w: src %d outside [0, %d)", ErrBadStation, c.Src, stations)
			}
			if c.Dest < 0 || c.Dest >= stations {
				return fmt.Errorf("earmac: %w: dest %d outside [0, %d)", ErrBadStation, c.Dest, stations)
			}
		}
		return nil
	}
	if err := checkPattern(c.Pattern); err != nil {
		return err
	}
	for i, ph := range c.Phases {
		if err := checkPattern(ph.Pattern); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
		if ph.Rounds < 0 || (ph.Rounds == 0 && i != len(c.Phases)-1) {
			return fmt.Errorf("earmac: %w: phase %d (%s) has %d rounds; only the last phase may be open-ended (0)",
				ErrBadRounds, i, ph.Pattern, ph.Rounds)
		}
	}
	if c.Replay != nil {
		if c.Replay.Header.N != c.N {
			return fmt.Errorf("earmac: %w: trace recorded for n = %d, config has n = %d",
				ErrBadTrace, c.Replay.Header.N, c.N)
		}
		if c.Replay.Header.Channels != c.Channels {
			return fmt.Errorf("earmac: %w: trace recorded for %d channels, config has %d",
				ErrBadTrace, c.Replay.Header.Channels, c.Channels)
		}
	}
	if c.RhoDen <= 0 || c.RhoNum <= 0 {
		return fmt.Errorf("earmac: %w: ρ = %d/%d is not a positive fraction", ErrBadRate, c.RhoNum, c.RhoDen)
	}
	if c.RhoNum > c.RhoDen {
		return fmt.Errorf("earmac: %w: ρ = %d/%d exceeds 1", ErrBadRate, c.RhoNum, c.RhoDen)
	}
	if c.Beta < 1 {
		return fmt.Errorf("earmac: %w: β = %d, need β >= 1", ErrBadBurst, c.Beta)
	}
	// The entry buckets must fit int64 arithmetic: one of the whole type
	// on a single channel, one of the split type per channel otherwise.
	channels := 1
	typ := adversary.T(c.RhoNum, c.RhoDen, c.Beta)
	var err error
	if c.Topology == "" {
		err = adversary.CheckType(typ)
	} else {
		channels = c.Channels
		_, err = network.SplitType(typ, channels)
	}
	if err != nil {
		return fmt.Errorf("earmac: %w", err)
	}
	if c.Beta > MaxBeta {
		return fmt.Errorf("earmac: %w: β = %d exceeds MaxBeta = %d", ErrBadBurst, c.Beta, MaxBeta)
	}
	if c.JamRhoNum == 0 {
		if c.JamRhoDen != 0 || c.JamBeta != 0 {
			return fmt.Errorf("earmac: %w: jam_rho_den/jam_beta set without a jam rate (set JamRhoNum)", ErrBadRate)
		}
	} else {
		if c.JamRhoNum < 0 || c.JamRhoDen <= 0 {
			return fmt.Errorf("earmac: %w: jam ρ = %d/%d is not a positive fraction", ErrBadRate, c.JamRhoNum, c.JamRhoDen)
		}
		if (c.JamRhoNum-1)/int64(channels) >= c.JamRhoDen { // num > den·channels, with no product to overflow
			return fmt.Errorf("earmac: %w: jam ρ = %d/%d exceeds the %d jammable channel(s) per round",
				ErrBadRate, c.JamRhoNum, c.JamRhoDen, channels)
		}
		if c.JamBeta < 1 {
			return fmt.Errorf("earmac: %w: jam β = %d, need β >= 1", ErrBadBurst, c.JamBeta)
		}
		if err := adversary.CheckType(adversary.T(c.JamRhoNum, c.JamRhoDen, c.JamBeta)); err != nil {
			return fmt.Errorf("earmac: jamming budget: %w", err)
		}
	}
	if _, err := network.NewOutageSchedule(c.Outages, channels); err != nil {
		return fmt.Errorf("earmac: %w: %v", ErrBadTopology, err)
	}
	if c.SleepAfterIdle < 0 || c.WakeEvery < 0 {
		return fmt.Errorf("earmac: %w: negative duty-cycle period (sleep_after_idle %d, wake_every %d)",
			ErrBadRounds, c.SleepAfterIdle, c.WakeEvery)
	}
	if c.EnergyBudget < 0 {
		return fmt.Errorf("earmac: %w: energy_budget = %d", ErrBadCap, c.EnergyBudget)
	}
	if c.WakeEvery > 0 && c.SleepAfterIdle <= 0 {
		return fmt.Errorf("earmac: %w: wake_every = %d without sleep_after_idle (nothing ever sleeps on schedule)",
			ErrConflict, c.WakeEvery)
	}
	if (c.jamming() || len(c.Outages) > 0 || c.dutyParams().Enabled()) && !alg.Tolerant {
		return fmt.Errorf("earmac: %w: algorithm %q is not tolerant of disrupted feedback — jamming, outages and "+
			"duty-cycling need a Tolerant algorithm (e.g. \"aloha\")", ErrConflict, c.Algorithm)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("earmac: %w: rounds = %d", ErrBadRounds, c.Rounds)
	}
	if c.StopInjectionsAfter < 0 {
		return fmt.Errorf("earmac: %w: stop-injections-after = %d", ErrBadRounds, c.StopInjectionsAfter)
	}
	return nil
}
