package earmac

// The public scenario surface: phase schedules as Config data, and the
// replayable trace format. A scenario is data, not code — a Config with
// a seed and phases describes a whole stochastic workload, and a
// recorded trace re-executes any run (stochastic or not) bit-for-bit on
// either simulator path. See DESIGN.md §8 for the model and the
// determinism invariants.

import (
	"encoding/json"
	"fmt"
	"io"

	"earmac/internal/scenario"
)

// Phase is one segment of a scenario's phase schedule: a registered
// pattern active for Rounds consecutive rounds. Rounds must be
// positive, except on the final phase where 0 means "for the rest of
// the run"; a schedule whose final phase is bounded cycles instead.
type Phase struct {
	Pattern string `json:"pattern"`
	Rounds  int64  `json:"rounds"`
}

// Trace is a decoded injection trace: a versioned header carrying the
// recording Config, the per-round injection events, and a footer
// pinning the recorded run's final counters. Produce one with
// Config.RecordTo, read one with ReadTrace, re-run one with
// ReplayConfig.
type Trace = scenario.Trace

// TraceVersion is the trace format version every recording and
// WriteTrace emits. ReadTrace also accepts the two older versions:
// version 1 (single-channel runs) and version 2 (a channel id per event
// for networks of channels, no jam/outage/sleep events).
const TraceVersion = scenario.TraceVersion

// ReadTrace decodes a recorded trace. Malformed input — unknown
// version, bad lines, non-increasing (round, channel) order — fails
// with an error wrapping ErrBadTrace; ReadTrace never panics.
func ReadTrace(r io.Reader) (*Trace, error) { return scenario.ReadTrace(r) }

// WriteTrace re-encodes a decoded trace at TraceVersion. WriteTrace
// followed by ReadTrace reproduces the trace exactly, but for its
// header's version.
func WriteTrace(w io.Writer, t *Trace) error { return scenario.Write(w, t) }

// TraceConfig returns the Config recorded in the trace's header.
func TraceConfig(t *Trace) (Config, error) {
	if len(t.Header.Config) == 0 {
		return Config{}, fmt.Errorf("earmac: %w: trace header carries no config", ErrBadTrace)
	}
	var c Config
	if err := json.Unmarshal(t.Header.Config, &c); err != nil {
		return Config{}, fmt.Errorf("earmac: %w: decoding trace config: %v", ErrBadTrace, err)
	}
	return c, nil
}

// ReplayConfig assembles the Config that re-executes a recorded trace:
// the recorded Config with Replay set, so Run injects exactly the
// recorded stream. A recording cut short (cancelled mid-run) carries a
// footer pinned at the round it stopped; the returned Config's horizon
// is truncated to match, so the replay reproduces the partial run
// rather than running the configured horizon past the recording. Tweak
// the returned Config's Lenient / DisableChecks / ForceChecked fields
// to replay with or without validators attached; a faithful replay
// reproduces the recorded footer's counters bit-identically either way.
func ReplayConfig(t *Trace) (Config, error) {
	c, err := TraceConfig(t)
	if err != nil {
		return Config{}, err
	}
	c.Replay = t
	if t.Footer != nil && t.Footer.Counters != nil &&
		t.Footer.Counters.Rounds > 0 && t.Footer.Counters.Rounds < c.Rounds {
		c.Rounds = t.Footer.Counters.Rounds
	}
	return c, nil
}
