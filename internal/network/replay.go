package network

import (
	"earmac/internal/core"
	"earmac/internal/scenario"
)

// NewReplaySource returns the entry adversaries that re-execute a
// recorded network run: one scenario.Replayer per channel, over
// that channel's entry events, which carry global [src, dest] pairs.
// Routing and relaying are recomputed deterministically, so the replay
// reproduces the recorded run bit-for-bit without the trace having to
// store any relay traffic; like any Replayer it applies no bucket and no
// RNG — the recording already proved admissibility. Kinded events
// (jam/outage/sleep, trace v3) are not entry injections: jams replay
// through JamReplay, the rest are derived state recomputed during the
// replay. Events on a channel outside [0, channels), possible only in a
// hand-edited trace, are dropped, as a network of that many channels
// never queries such a channel.
func NewReplaySource(t *scenario.Trace, channels int) []core.Adversary {
	byCh := make([][]scenario.Event, channels)
	for _, ev := range t.Events {
		if ev.Kind != "" || ev.Channel < 0 || ev.Channel >= channels {
			continue
		}
		byCh[ev.Channel] = append(byCh[ev.Channel], ev)
	}
	entry := make([]core.Adversary, channels)
	for c, evs := range byCh {
		entry[c] = scenario.NewReplayer(evs)
	}
	return entry
}
